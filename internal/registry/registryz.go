package registry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/obs"
)

// RegistryzPath is the debug endpoint path serving the table.
const RegistryzPath = "/debug/registryz"

// registryzEntry is one table row in the /debug/registryz JSON.
type registryzEntry struct {
	Fingerprint string    `json:"fingerprint"`
	Format      string    `json:"format"`
	Fields      int       `json:"fields"`
	Xforms      int       `json:"xforms"`
	Hits        uint64    `json:"hits"`
	AddedAt     time.Time `json:"added_at"`
}

// registryzWatcher is one live subscription in the /debug/registryz JSON.
type registryzWatcher struct {
	Remote  string    `json:"remote"`
	SentSeq uint64    `json:"sent_seq"`
	Resyncs uint64    `json:"resyncs"`
	Since   time.Time `json:"since"`
}

// registryzSnapshot is the /debug/registryz JSON document.
type registryzSnapshot struct {
	Entries      []registryzEntry   `json:"entries"`
	Count        int                `json:"count"`
	Gets         uint64             `json:"gets"`
	Puts         uint64             `json:"puts"`
	Unknown      uint64             `json:"unknown"`
	WatchSeq     uint64             `json:"watch_seq"`
	WatchRingCap int                `json:"watch_ring_cap"`
	WatchRingLen int                `json:"watch_ring_len"`
	Watchers     []registryzWatcher `json:"watchers"`
	Cluster      any                `json:"cluster,omitempty"`
}

// Handler returns the /debug/registryz page: the full table, sorted by
// fingerprint so two snapshots of a quiescent daemon are identical,
// negotiated as obs.WritePage does (JSON, or a line-per-entry text dump).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := registryzSnapshot{
			Gets:    s.gets.Load(),
			Puts:    s.puts.Load(),
			Unknown: s.unk.Load(),
		}
		s.mu.RLock()
		fps := make([]uint64, 0, len(s.table))
		for fp := range s.table {
			fps = append(fps, fp)
		}
		sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
		for _, fp := range fps {
			te := s.table[fp]
			snap.Entries = append(snap.Entries, registryzEntry{
				Fingerprint: fmt.Sprintf("%016x", fp),
				Format:      te.name,
				Fields:      te.fields,
				Xforms:      te.xforms,
				Hits:        te.hits.Load(),
				AddedAt:     te.addedAt,
			})
		}
		s.mu.RUnlock()
		snap.Count = len(snap.Entries)

		s.watchMu.Lock()
		snap.WatchSeq = s.seq
		snap.WatchRingCap = s.ringCap
		snap.WatchRingLen = len(s.ring)
		snap.Watchers = make([]registryzWatcher, 0, len(s.watchers))
		for _, wa := range s.watchers {
			snap.Watchers = append(snap.Watchers, registryzWatcher{
				Remote:  wa.remote,
				SentSeq: wa.sent,
				Resyncs: wa.resyncs,
				Since:   wa.since,
			})
		}
		s.watchMu.Unlock()
		sort.Slice(snap.Watchers, func(i, j int) bool { return snap.Watchers[i].Remote < snap.Watchers[j].Remote })
		if _, _, _, _, statusFn := s.clusterState(); statusFn != nil {
			snap.Cluster = statusFn()
		}

		obs.WritePage(w, req, snap, snap.writeText)
	})
}

// writeText renders the table as a header line, then one line per entry and
// per watcher.
func (snap registryzSnapshot) writeText(w io.Writer) {
	fmt.Fprintf(w, "# formatd table: %d entries (gets=%d puts=%d unknown=%d seq=%d ring=%d/%d watchers=%d)\n",
		snap.Count, snap.Gets, snap.Puts, snap.Unknown, snap.WatchSeq, snap.WatchRingLen, snap.WatchRingCap, len(snap.Watchers))
	if snap.Cluster != nil {
		cj, _ := json.Marshal(snap.Cluster)
		fmt.Fprintf(w, "# cluster %s\n", cj)
	}
	for _, e := range snap.Entries {
		fmt.Fprintf(w, "%s %-20s fields=%d xforms=%d hits=%d\n",
			e.Fingerprint, e.Format, e.Fields, e.Xforms, e.Hits)
	}
	for _, wa := range snap.Watchers {
		fmt.Fprintf(w, "watch %-21s sent_seq=%d resyncs=%d since=%s\n",
			wa.Remote, wa.SentSeq, wa.Resyncs, wa.Since.Format(time.RFC3339))
	}
}
