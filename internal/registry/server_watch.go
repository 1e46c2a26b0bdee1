package registry

import (
	"time"

	"repro/internal/wire"
)

// DefaultWatchRing bounds the server's replay ring: a resubscribing client
// whose last-applied seqno is still within the ring gets exactly the events
// it missed; one that fell further behind gets a full-table resync instead.
// The depth bounds how long a cluster standby may be partitioned and still
// reconverge incrementally.
const DefaultWatchRing = 256

// watchEvent is one table mutation as retained for replay. The blob aliases
// the stored tableEntry's (immutable) blob, so the ring costs headers only.
type watchEvent struct {
	seq  uint64
	fp   uint64
	blob []byte
}

// watcher is one live subscription: a per-connection cursor into the event
// sequence. next/sent/stopped are guarded by the server's watchMu; its pump
// goroutine is the only writer of event frames on the connection.
type watcher struct {
	conn    *wire.Conn
	remote  string
	since   time.Time
	next    uint64 // next seqno to send
	sent    uint64 // last seqno written (0 = none yet)
	resyncs uint64 // full-table replays served to this subscription
	stopped bool
}

// appendEventLocked (mu held) records one table mutation in the replay ring
// and wakes every watcher pump.
func (s *Server) appendEventLocked(fp uint64, blob []byte) {
	s.watchMu.Lock()
	s.seq++
	if len(s.ring) >= s.ringCap {
		copy(s.ring, s.ring[1:])
		s.ring = s.ring[:len(s.ring)-1]
	}
	s.ring = append(s.ring, watchEvent{seq: s.seq, fp: fp, blob: blob})
	s.watchCond.Broadcast()
	s.watchMu.Unlock()
}

// subscribe registers (or rewinds) the connection's watcher so that every
// event with seq > afterSeq reaches it, and returns the current seqno. The
// first opWatch on a connection spawns its pump goroutine; a repeat opWatch
// just moves the cursor, so a client that resubscribes over a live
// connection is idempotent.
func (s *Server) subscribe(conn *wire.Conn, afterSeq uint64) uint64 {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	w := s.watchers[conn]
	if w == nil {
		remote := ""
		if ra := conn.RemoteAddr(); ra != nil {
			remote = ra.String()
		}
		w = &watcher{conn: conn, remote: remote, since: time.Now()}
		s.watchers[conn] = w
		s.watchGauge.Add(1)
		go s.watchPump(w)
	}
	w.next = afterSeq + 1
	s.watchCond.Broadcast()
	return s.seq
}

// dropWatcher cancels the connection's subscription (if any) and wakes its
// pump so it can exit.
func (s *Server) dropWatcher(conn *wire.Conn) {
	s.watchMu.Lock()
	if w := s.watchers[conn]; w != nil {
		w.stopped = true
		delete(s.watchers, conn)
		s.watchGauge.Add(-1)
		s.watchCond.Broadcast()
	}
	s.watchMu.Unlock()
}

// watchPump streams events to one watcher until it stops. It is the only
// writer of opEvent frames on the connection (RPC responses interleave
// safely through the wire layer's write lock). When the watcher's cursor
// precedes the replay ring — it fell more than watchRingCap events behind,
// or it resumed with a seqno from a previous daemon incarnation — the pump
// degrades to a full-table resync: every current entry is pushed with the
// current seqno, which over-delivers but never under-delivers (events are
// idempotent upserts).
func (s *Server) watchPump(w *watcher) {
	for {
		s.watchMu.Lock()
		for !w.stopped && w.next == s.seq+1 {
			s.watchCond.Wait()
		}
		if w.stopped {
			s.watchMu.Unlock()
			return
		}
		var evs []watchEvent
		resync := false
		target := s.seq
		if w.next <= target && len(s.ring) > 0 && w.next >= s.ring[0].seq {
			evs = append(evs, s.ring[w.next-s.ring[0].seq:]...)
		} else {
			resync = true
			w.resyncs++
		}
		w.next = target + 1
		s.watchMu.Unlock()

		if resync {
			// Outside watchMu (lock order: mu before watchMu). Entries put
			// after target are both in this copy and replayed as events with
			// higher seqnos — duplicates are harmless.
			s.mu.RLock()
			evs = make([]watchEvent, 0, len(s.table))
			for fp, te := range s.table {
				evs = append(evs, watchEvent{seq: target, fp: fp, blob: te.blob})
			}
			s.mu.RUnlock()
		}
		for _, ev := range evs {
			if err := w.conn.WriteControl(wire.FrameRegistry, appendEvent(nil, ev.seq, ev.fp, ev.blob)); err != nil {
				s.dropWatcher(w.conn)
				return
			}
			s.watchEvs.Inc()
		}
		if len(evs) > 0 {
			s.watchMu.Lock()
			w.sent = evs[len(evs)-1].seq
			s.watchMu.Unlock()
		}
	}
}
