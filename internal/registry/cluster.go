package registry

import (
	"log"
	"time"
)

// Replication turns a set of formatd daemons into a replicated metadata
// plane: one primary accepts writes and sources the watch stream, every other
// peer is a standby that replicates the primary's table through that same
// stream, serves reads immediately, and forwards writes. When the primary
// dies, the lowest-index live peer promotes itself, bumps its daemon instance
// ID, and the watch protocol's resync machinery (seqno handshake + full-table
// resync on instance change) reconverges every client and standby with zero
// lost registrations.
//
// The design leans entirely on the watch protocol instead of a consensus
// log: a standby is just a persistent watcher whose "cache" is its own
// authoritative table. Mutation seqnos order the stream, the replay ring
// absorbs short partitions, and the full-table resync — idempotent upserts
// that over-deliver but never under-deliver — is the recovery path for
// everything else. Election is deterministic, not consensual: a peer that
// finds an existing primary joins it (a claimed primary always wins, so a
// rebooted ex-primary rejoins as a standby); otherwise the lowest-index
// reachable peer promotes after a boot-grace window that gives lower indices
// time to come up. Split-brain windows are bounded by heartbeat detection and
// resolved by client-side reconvergence, not prevented — the registry's
// writes are idempotent upserts keyed by content fingerprint, which is what
// makes that trade sound. A standby does the same for the writes it
// accepted: it re-forwards them to every new primary incarnation (see
// Server.forwarded).
//
// The peer list is the whole policy. A server with no peers, or with itself
// as the only one, is the election's foregone conclusion — the primary from
// construction, with no supervisor.

// DefaultHeartbeat is the peer-probe interval WithPeers uses when given a
// non-positive one.
const DefaultHeartbeat = 250 * time.Millisecond

// failAfter consecutive missed heartbeats (or a broken replication
// connection followed by failed re-dials) declare the primary dead. The same
// number of heartbeats is a booting peer's grace for lower indices.
const failAfter = 3

// WithPeers makes the server one member of a replicated peer set: addrs is
// every peer's client-facing address, index-aligned and the same on every
// peer; self is this server's index in it; heartbeat is the probe interval
// (<= 0: DefaultHeartbeat). With a snapshot path, a standby persists its
// replication cursor beside the snapshot as <snapshot>.cursor.
func WithPeers(addrs []string, self int, heartbeat time.Duration) ServerOption {
	return func(s *Server) { s.peers, s.self, s.heartbeat = addrs, self, heartbeat }
}

// peerState is one row of the live peer table.
type peerState struct {
	Addr     string    `json:"addr"`
	Self     bool      `json:"self,omitempty"`
	Alive    bool      `json:"alive"`
	Role     string    `json:"role"`
	Seq      uint64    `json:"seq"`
	LastSeen time.Time `json:"last_seen,omitempty"`
}

// Role returns the server's current replication role: RolePrimary for a
// standalone server, RoleNone while a peer's election is in flight.
func (s *Server) Role() byte {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.role
}

// startReplication (NewServer) settles the role of a peer set of one, or
// starts the supervisor that elects one.
func (s *Server) startReplication() {
	if s.heartbeat <= 0 {
		s.heartbeat = DefaultHeartbeat
	}
	if s.snapshotPath != "" {
		s.cursorPath = s.snapshotPath + ".cursor"
	}
	s.peerTable = make([]peerState, len(s.peers))
	for i, addr := range s.peers {
		s.peerTable[i] = peerState{Addr: addr, Self: i == s.self}
	}
	s.roleGauge = s.reg.Gauge("cluster.role")
	s.lagGauge = s.reg.Gauge("cluster.repl_lag")
	s.aliveGauge = s.reg.Gauge("cluster.peers_alive")
	s.promotions = s.reg.Counter("cluster.promotions")
	s.applied = s.reg.Counter("cluster.applied")
	s.damped = s.reg.Counter("cluster.damped")
	if len(s.peers) <= 1 {
		s.role, s.primaryIdx = RolePrimary, s.self
		s.roleGauge.Set(int64(RolePrimary))
		return
	}
	log.Printf("registry: peer %d of %d (%v), heartbeat %s", s.self, len(s.peers), s.peers, s.heartbeat)
	s.superWG.Add(1)
	go s.supervise()
}

// stopReplication (Close) stops the supervisor and waits for it; a standby's
// supervisor returns only after its replication pump has exited.
func (s *Server) stopReplication() {
	s.replMu.Lock()
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	repl := s.repl
	s.repl = nil
	s.replMu.Unlock()
	if repl != nil {
		_ = repl.Close()
	}
	s.superWG.Wait()
}

// lagLocked (replMu held) is the standby's replication lag in stream seqnos.
func (s *Server) lagLocked() uint64 {
	if s.primarySeq > s.appliedSeq {
		return s.primarySeq - s.appliedSeq
	}
	return 0
}

func (s *Server) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// sleep waits d or until Close.
func (s *Server) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.stop:
	}
}

// supervise is the supervision loop: find (or become) the primary, replicate
// until the link dies, repeat. Promotion is one-way — a primary serves
// until the process dies.
func (s *Server) supervise() {
	defer s.superWG.Done()
	// Boot grace: give lower-index peers one failure-detection window to
	// come up before concluding they are dead. Peer 0 has no lower peers
	// and promotes immediately on a cold cluster.
	graceUntil := time.Now().Add(failAfter * s.heartbeat)
	for !s.stopped() {
		primaryIdx, lowestAlive := s.probePeers()
		switch {
		case primaryIdx >= 0:
			// A claimed primary always wins, whatever its index — this is
			// how a rebooted ex-primary (index 0, say) rejoins as a standby
			// instead of stealing the role back and losing writes.
			s.runStandby(primaryIdx)
			// The link died: re-detect. Failover elections skip boot grace —
			// the peers answered heartbeats moments ago.
			graceUntil = time.Now()
		case lowestAlive == s.self:
			if time.Now().Before(graceUntil) && s.self != 0 {
				// Cold boot with lower-index peers unheard-from: give them
				// one failure-detection window before claiming the role.
				s.sleep(s.heartbeat)
				continue
			}
			s.promote()
			s.runPrimary()
			return
		default:
			// Someone lower-indexed is alive but has not claimed primary yet
			// (it is in its own grace window or mid-promotion): wait for its
			// claim rather than racing it.
			s.sleep(s.heartbeat)
		}
	}
}

// probePeers hellos every other peer, refreshes the peer table, and returns
// the lowest index claiming primary (-1 if none) and the lowest reachable
// index (self counts as reachable).
func (s *Server) probePeers() (primaryIdx, lowestAlive int) {
	primaryIdx, lowestAlive = -1, s.self
	alive := 1 // self
	for i, addr := range s.peers {
		if i == s.self {
			continue
		}
		hi, err := probeHello(addr, s.heartbeat)
		if err != nil {
			s.updatePeer(i, func(p *peerState) { p.Alive = false })
			continue
		}
		alive++
		lowestAlive = min(lowestAlive, i)
		if hi.role == RolePrimary && primaryIdx == -1 {
			primaryIdx = i
		}
		s.updatePeer(i, func(p *peerState) {
			p.Alive, p.Role, p.Seq, p.LastSeen = true, RoleName(hi.role), hi.seq, time.Now()
		})
	}
	s.aliveGauge.Set(int64(alive))
	return primaryIdx, lowestAlive
}

func (s *Server) updatePeer(i int, f func(*peerState)) {
	s.replMu.Lock()
	f(&s.peerTable[i])
	s.replMu.Unlock()
}

// promote makes this server the primary: the instance ID changes — so every
// watcher (clients and standbys alike) discards its seqno bookkeeping and
// full-resyncs, regardless of what the dead primary did or did not replicate
// in time — and then the role flips, so writes go straight to the local
// table and hellos claim the role other peers defer to.
func (s *Server) promote() {
	s.watchMu.Lock()
	s.instance = newInstance()
	s.watchMu.Unlock()
	s.replMu.Lock()
	s.role = RolePrimary
	s.primaryIdx = s.self
	s.primarySeq = 0
	clear(s.forwarded) // this table is the authority now, and primaries never demote
	s.replMu.Unlock()
	s.promotions.Inc()
	s.roleGauge.Set(int64(RolePrimary))
	s.lagGauge.Set(0)
	log.Printf("registry: peer %d promoted to primary (instance bumped, %d peers)", s.self, len(s.peers))
}

// runPrimary is the primary's steady state: keep the peer table fresh for
// /debug/registryz until Close. Primaries never demote.
func (s *Server) runPrimary() {
	for !s.stopped() {
		s.sleep(s.heartbeat * 2)
		if s.stopped() {
			return
		}
		s.probePeers()
	}
}

// runStandby attaches to the primary at index pi and replicates until the
// link is declared dead (connection loss or failAfter missed heartbeats).
func (s *Server) runStandby(pi int) {
	addr := s.peers[pi]
	repl, err := dialRepl(addr, s.heartbeat*2, s.applyEvent)
	if err != nil {
		log.Printf("registry: peer %d: dial primary %d (%s): %v", s.self, pi, addr, err)
		s.sleep(s.heartbeat)
		return
	}
	hi, err := repl.Hello(s.heartbeat * 2)
	if err != nil || hi.role != RolePrimary {
		_ = repl.Close()
		if err != nil {
			log.Printf("registry: peer %d: hello primary %d: %v", s.self, pi, err)
		}
		s.sleep(s.heartbeat)
		return
	}

	// Resume from the persisted cursor when it belongs to this primary
	// incarnation; anything else means our seqnos are from another life and
	// only a full resync (afterSeq 0) is sound.
	curInst, curSeq := s.loadCursor()
	afterSeq := uint64(0)
	if curInst == hi.instance && curInst != 0 {
		afterSeq = curSeq
	}
	if !s.attach(repl, pi, hi, afterSeq) {
		return
	}

	if _, err := repl.Watch(afterSeq, s.heartbeat*2); err != nil {
		log.Printf("registry: peer %d: watch primary %d: %v", s.self, pi, err)
		s.detachRepl(repl)
		return
	}
	log.Printf("registry: peer %d standby of primary %d (%s), resume after seq %d", s.self, pi, addr, afterSeq)

	// Heartbeat loop: a hello every interval refreshes the primary's head
	// seqno (feeding the lag gauge); failAfter consecutive misses — or the
	// replication connection dying — is a dead primary.
	misses := 0
	tick := time.NewTicker(s.heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			s.detachRepl(repl)
			return
		case <-repl.Done():
			log.Printf("registry: peer %d: replication link to primary %d lost", s.self, pi)
			s.detachRepl(repl)
			return
		case <-tick.C:
			hb, err := repl.Hello(s.heartbeat)
			if err != nil {
				misses++
				if misses >= failAfter {
					log.Printf("registry: peer %d: primary %d missed %d heartbeats, declaring dead", s.self, pi, misses)
					s.detachRepl(repl)
					return
				}
				continue
			}
			misses = 0
			s.replMu.Lock()
			s.primarySeq = hb.seq
			lag := s.lagLocked()
			s.replMu.Unlock()
			s.lagGauge.Set(int64(lag))
			s.updatePeer(pi, func(p *peerState) {
				p.Alive, p.Role, p.Seq, p.LastSeen = true, RoleName(hb.role), hb.seq, time.Now()
			})
		}
	}
}

// attach makes repl, a session to primary pi that answered hello hi, this
// standby's forward path and, when pi is a primary incarnation it has not
// yet re-announced to, re-forwards its writes there. It reports false, with
// repl detached, when the server is closing or the re-announce failed.
func (s *Server) attach(repl *replSession, pi int, hi helloInfo, afterSeq uint64) bool {
	// Installing repl opens the forward path. The stop check shares the lock
	// with stopReplication's, so a Close racing this attach either sees the
	// session (and closes it) or is seen here.
	s.replMu.Lock()
	newPrimary := s.primaryInst != hi.instance
	s.role = RoleStandby
	s.primaryIdx = pi
	s.primaryInst = hi.instance
	s.primarySeq = hi.seq
	s.appliedSeq = afterSeq
	closed := s.stopped()
	if !closed {
		s.repl = repl
	}
	s.replMu.Unlock()
	if closed {
		s.detachRepl(repl)
		return false
	}
	s.roleGauge.Set(int64(RoleStandby))
	if newPrimary {
		if err := s.reannounce(repl); err != nil {
			log.Printf("registry: peer %d: re-announce to primary %d: %v", s.self, pi, err)
			s.replMu.Lock()
			s.primaryInst = 0 // not announced to yet: the next attach re-announces
			s.replMu.Unlock()
			s.detachRepl(repl)
			return false
		}
	}
	return true
}

// forward keeps one write for reannounce and relays it to the primary over
// the standby's replication session. Keeping it first means a re-announce
// that runs while the primary's acknowledgement is in flight carries it; a
// write whose forward fails stays kept, and re-forwarding it is one more
// idempotent upsert.
func (s *Server) forward(repl *replSession, fp uint64, blob []byte) error {
	s.replMu.Lock()
	s.forwarded[fp] = blob
	s.replMu.Unlock()
	return repl.Put(blob, s.heartbeat*4)
}

// reannounce re-forwards every write this standby accepted under earlier
// primary incarnations to the one it just attached to. The primary damps a
// blob it already holds, so only the writes the dead primary never streamed
// to its successor cost anything. An error leaves the set for the next attach.
func (s *Server) reannounce(repl *replSession) error {
	s.replMu.Lock()
	blobs := make([][]byte, 0, len(s.forwarded))
	for _, blob := range s.forwarded {
		blobs = append(blobs, blob)
	}
	s.replMu.Unlock()
	for _, blob := range blobs {
		if err := repl.Put(blob, s.heartbeat*4); err != nil {
			return err
		}
	}
	return nil
}

// detachRepl closes the replication session, which also closes the forward
// path (the next attach or promotion installs the right write path). It
// returns only once the session's read pump has exited: applyEvent runs on
// that pump, and one still in flight would write this session's seqno,
// cursor and snapshot over the next attachment's, or after Close returned.
func (s *Server) detachRepl(repl *replSession) {
	_ = repl.Close()
	<-repl.Done()
	s.replMu.Lock()
	if s.repl == repl {
		s.repl = nil
	}
	s.replMu.Unlock()
}

// applyEvent stores one replicated mutation (on the replication session's
// read pump, so application order is stream order) and advances the cursor.
func (s *Server) applyEvent(seq, fp uint64, blob []byte) {
	changed, err := s.applyReplicated(fp, blob)
	if err != nil {
		log.Printf("registry: peer %d: apply seq %d fp %016x: %v", s.self, seq, fp, err)
		return
	}
	if changed {
		s.applied.Inc()
	} else {
		s.damped.Inc()
	}
	s.replMu.Lock()
	s.appliedSeq = max(s.appliedSeq, seq)
	inst, cur, lag := s.primaryInst, s.appliedSeq, s.lagLocked()
	s.replMu.Unlock()
	s.lagGauge.Set(int64(lag))
	s.saveCursor(inst, cur)
}
