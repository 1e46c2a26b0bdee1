package tap

import (
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// TapzPath is the debug endpoint path components mount Handler at.
const TapzPath = "/debug/tapz"

// RecordJSON is one captured frame in the /debug/tapz payload.
type RecordJSON struct {
	Seq         uint64    `json:"seq"`
	TS          time.Time `json:"ts"`
	Dir         string    `json:"dir"`
	Kind        string    `json:"kind"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	Len         uint32    `json:"len"`
	TraceID     string    `json:"trace_id,omitempty"`
	Prefix      string    `json:"prefix,omitempty"` // hex of the captured payload prefix
	Partial     bool      `json:"partial,omitempty"`
}

// ConnJSON is one tapped connection in the /debug/tapz payload.
type ConnJSON struct {
	ID       uint64       `json:"id"`
	Label    Label        `json:"label"`
	Open     bool         `json:"open"`
	Captured uint64       `json:"captured"`
	Dropped  uint64       `json:"dropped"`
	Records  []RecordJSON `json:"records"`
}

// TapzSnapshot is the JSON payload of /debug/tapz.
type TapzSnapshot struct {
	Name     string     `json:"name"`
	Armed    bool       `json:"armed"`
	Capacity int        `json:"capacity"`
	Prefix   int        `json:"prefix"`
	Conns    []ConnJSON `json:"conns"`
}

func recordJSON(r *Record) RecordJSON {
	out := RecordJSON{
		Seq:     r.Seq,
		TS:      time.Unix(0, r.TS),
		Dir:     r.Dir.String(),
		Kind:    wire.FrameKindName(r.Kind),
		Len:     r.Len,
		Partial: !r.Complete(),
	}
	if r.FP != 0 {
		out.Fingerprint = fmt.Sprintf("%016x", r.FP)
	}
	if !r.Trace.IsZero() {
		out.TraceID = r.Trace.String()
	}
	if len(r.Prefix) > 0 {
		out.Prefix = hex.EncodeToString(r.Prefix)
	}
	return out
}

// Filter selects captured frames; every zero field matches everything.
// /debug/tapz parses it from its query and cmd/morphtap from its flags, so
// both read the same names: channel=, kind= (see wire.ParseFrameKind), fp=
// (hex fingerprint), trace= (hex trace-ID prefix), conn= (connection ID) and
// limit= (each connection's most recent N matches).
type Filter struct {
	channel  string
	kind     byte
	hasKind  bool
	fp       uint64
	tracePfx string
	connID   uint64
	limit    int
}

// ParseFilter reads a Filter from query-style values, rejecting malformed
// ones.
func ParseFilter(q url.Values) (Filter, error) {
	f := Filter{channel: q.Get("channel"), tracePfx: strings.ToLower(q.Get("trace"))}
	if s := q.Get("kind"); s != "" {
		k, err := wire.ParseFrameKind(s)
		if err != nil {
			return f, err
		}
		f.kind, f.hasKind = k, true
	}
	if s := q.Get("fp"); s != "" {
		fp, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return f, fmt.Errorf("bad fp %q: want hex fingerprint", s)
		}
		f.fp = fp
	}
	if s := q.Get("conn"); s != "" {
		id, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return f, fmt.Errorf("bad conn %q: want numeric connection ID", s)
		}
		f.connID = id
	}
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return f, fmt.Errorf("bad limit %q", s)
		}
		f.limit = n
	}
	return f, nil
}

// MatchConn reports whether a connection passes the conn= and channel=
// filters.
func (f Filter) MatchConn(id uint64, l Label) bool {
	if f.connID != 0 && id != f.connID {
		return false
	}
	return f.channel == "" || l.Channel == f.channel
}

// MatchRecord reports whether a frame passes the kind=, fp= and trace=
// filters.
func (f Filter) MatchRecord(r *Record) bool {
	if f.hasKind && r.Kind != f.kind {
		return false
	}
	if f.fp != 0 && r.FP != f.fp {
		return false
	}
	return f.tracePfx == "" || strings.HasPrefix(r.Trace.String(), f.tracePfx)
}

// apply filters a snapshot in place: connections that fail the connection
// filters are removed, surviving connections keep only matching records, and
// limit keeps each connection's most recent N matches.
func (f Filter) apply(s *Snapshot) {
	conns := s.Conns[:0]
	for i := range s.Conns {
		cs := &s.Conns[i]
		if !f.MatchConn(cs.ID, cs.Label) {
			continue
		}
		recs := cs.Records[:0]
		for j := range cs.Records {
			if f.MatchRecord(&cs.Records[j]) {
				recs = append(recs, cs.Records[j])
			}
		}
		cs.Records = recs
		if f.limit > 0 && len(cs.Records) > f.limit {
			cs.Records = cs.Records[len(cs.Records)-f.limit:]
		}
		conns = append(conns, *cs)
	}
	s.Conns = conns
}

// Handler returns the /debug/tapz page: the (filtered, see Filter) capture
// negotiated as obs.WritePage does (JSON TapzSnapshot, or a frame-per-line
// log as text), and `?format=morphcap` downloads it as a binary .morphcap
// capture for offline decoding with cmd/morphtap. `arm=on|off` toggles
// capture before rendering. A nil tap serves an empty snapshot.
func Handler(t *Tap) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		switch q.Get("arm") {
		case "on":
			t.Arm()
		case "off":
			t.Disarm()
		}
		f, err := ParseFilter(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		snap := t.Snapshot()
		f.apply(&snap)
		if q.Get("format") == "morphcap" {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Disposition", `attachment; filename="tap.morphcap"`)
			_ = WriteCapture(w, snap)
			return
		}
		out := TapzSnapshot{
			Name:     snap.Name,
			Armed:    snap.Armed,
			Capacity: snap.Capacity,
			Prefix:   snap.Prefix,
			Conns:    make([]ConnJSON, 0, len(snap.Conns)),
		}
		for i := range snap.Conns {
			cs := &snap.Conns[i]
			cj := ConnJSON{
				ID:       cs.ID,
				Label:    cs.Label,
				Open:     cs.Open,
				Captured: cs.Captured,
				Dropped:  cs.Dropped,
				Records:  make([]RecordJSON, 0, len(cs.Records)),
			}
			for j := range cs.Records {
				cj.Records = append(cj.Records, recordJSON(&cs.Records[j]))
			}
			out.Conns = append(out.Conns, cj)
		}
		obs.WritePage(w, req, out, snap.writeText)
	})
}

// writeText renders the snapshot as a frame-per-line log, connection by
// connection.
func (snap Snapshot) writeText(w io.Writer) {
	armed := "disarmed"
	if snap.Armed {
		armed = "armed"
	}
	fmt.Fprintf(w, "# tapz %q: %s, %d conns, ring=%d prefix=%dB\n",
		snap.Name, armed, len(snap.Conns), snap.Capacity, snap.Prefix)
	for i := range snap.Conns {
		cs := &snap.Conns[i]
		state := "open"
		if !cs.Open {
			state = "closed"
		}
		fmt.Fprintf(w, "conn %d %s proto=%s channel=%s role=%s peer=%s captured=%d dropped=%d\n",
			cs.ID, state, cs.Label.Proto, cs.Label.Channel, cs.Label.Role, cs.Label.Peer,
			cs.Captured, cs.Dropped)
		for j := range cs.Records {
			r := &cs.Records[j]
			arrow := "<-"
			if r.Dir == wire.TapWrite {
				arrow = "->"
			}
			fmt.Fprintf(w, "  %6d %s %s %-10s %6dB", r.Seq,
				time.Unix(0, r.TS).Format("15:04:05.000000"), arrow,
				wire.FrameKindName(r.Kind), r.Len)
			if r.FP != 0 {
				fmt.Fprintf(w, " fp=%016x", r.FP)
			}
			if !r.Trace.IsZero() {
				fmt.Fprintf(w, " trace=%s", r.Trace.String())
			}
			if !r.Complete() {
				fmt.Fprint(w, " (partial)")
			}
			fmt.Fprintln(w)
		}
	}
}
