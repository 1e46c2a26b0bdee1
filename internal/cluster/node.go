// Package cluster turns a set of formatd daemons into a replicated,
// sharded metadata plane: one primary accepts writes and sources the watch
// stream, every other peer is a standby that replicates the primary's table
// through that same stream, serves reads immediately, and forwards writes.
// When the primary dies, the lowest-index live peer promotes itself, bumps
// its daemon instance ID, and the registry's existing resync machinery
// (seqno handshake + full-table resync on instance change) reconverges
// every client and standby with zero lost registrations.
//
// The design leans entirely on PR 5's watch protocol instead of a consensus
// log: a standby is just a persistent watcher whose "cache" is its own
// authoritative table. Mutation seqnos order the stream, the replay ring
// absorbs short partitions, and the full-table resync — idempotent upserts
// that over-deliver but never under-deliver — is the recovery path for
// everything else. Election is deterministic, not consensual: a peer that
// finds an existing primary joins it (a claimed primary always wins, so a
// rebooted ex-primary rejoins as a standby); otherwise the lowest-index
// reachable peer promotes after a boot-grace window that gives lower
// indices time to come up. Split-brain windows are bounded by heartbeat
// detection and resolved by client-side reconvergence, not prevented — the
// registry's writes are idempotent upserts keyed by content fingerprint,
// which is what makes that trade sound. A standby does the same for the
// writes it accepted: it re-forwards them to every new primary incarnation
// (see Node.forwarded).
package cluster

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/registry"
	"repro/internal/spool"
)

// Defaults for failure detection. A standby declares its primary dead after
// FailAfter consecutive missed heartbeats (or instantly on a broken
// replication connection followed by failed re-dials).
const (
	DefaultHeartbeat = 250 * time.Millisecond
	DefaultFailAfter = 3
)

// Config wires one peer into the cluster.
type Config struct {
	Index     int      // this peer's position in Peers
	Peers     []string // every peer's client-facing address, index-aligned
	Shards    int      // fingerprint-space shard count (<=1: single shard)
	Cursor    string   // replication-cursor path ("" = not persisted)
	Heartbeat time.Duration
	FailAfter int
	Obs       *obs.Registry
	Logf      func(format string, args ...any) // nil = silent
}

// peerState is one row of the node's live peer table.
type peerState struct {
	Addr     string    `json:"addr"`
	Self     bool      `json:"self,omitempty"`
	Alive    bool      `json:"alive"`
	Role     string    `json:"role"`
	Seq      uint64    `json:"seq"`
	LastSeen time.Time `json:"last_seen,omitempty"`
}

// Node supervises one registry.Server's cluster membership: election,
// replication (as a standby), failure detection, and promotion. It installs
// itself into the server via SetHelloInfo/SetWriteForwarder/SetStatusFunc
// and runs until Close.
type Node struct {
	cfg Config
	srv *registry.Server

	mu          sync.Mutex
	role        byte
	primaryIdx  int    // index of the primary this node follows (== cfg.Index when primary)
	primaryInst uint64 // instance ID of that primary's daemon
	appliedSeq  uint64 // last primary-stream seqno applied locally
	primarySeq  uint64 // latest seqno heard from the primary (hello/watch)
	repl        *registry.ReplSession
	peers       []peerState
	// forwarded holds every write this standby accepted and its primary
	// acknowledged, by fingerprint (the blob is the slice the local table
	// stores). The ack proves the primary held the write, not that any other
	// standby does — replication is asynchronous — so the peer promoted
	// after that primary dies may never have seen it; see reannounce.
	forwarded map[uint64][]byte
	closed    bool

	stop chan struct{}
	wg   sync.WaitGroup

	roleGauge  *obs.Gauge   // cluster.role: 1 primary, 2 standby
	lagGauge   *obs.Gauge   // cluster.repl_lag: primary seq - applied seq
	aliveGauge *obs.Gauge   // cluster.peers_alive
	promotions *obs.Counter // cluster.promotions
	applied    *obs.Counter // cluster.applied: replicated mutations stored
	damped     *obs.Counter // cluster.damped: byte-identical echoes dropped
}

// New wires a node around srv. Call Start to join the cluster.
func New(srv *registry.Server, cfg Config) (*Node, error) {
	if cfg.Index < 0 || cfg.Index >= len(cfg.Peers) {
		return nil, fmt.Errorf("cluster: index %d out of range for %d peers", cfg.Index, len(cfg.Peers))
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = DefaultFailAfter
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	n := &Node{
		cfg:        cfg,
		srv:        srv,
		role:       registry.RoleNone,
		primaryIdx: -1,
		stop:       make(chan struct{}),
		peers:      make([]peerState, len(cfg.Peers)),
		forwarded:  make(map[uint64][]byte),
	}
	for i, addr := range cfg.Peers {
		n.peers[i] = peerState{Addr: addr, Self: i == cfg.Index}
	}
	n.roleGauge = cfg.Obs.Gauge("cluster.role")
	n.lagGauge = cfg.Obs.Gauge("cluster.repl_lag")
	n.aliveGauge = cfg.Obs.Gauge("cluster.peers_alive")
	n.promotions = cfg.Obs.Counter("cluster.promotions")
	n.applied = cfg.Obs.Counter("cluster.applied")
	n.damped = cfg.Obs.Counter("cluster.damped")
	return n, nil
}

// Start joins the cluster: the supervision loop elects, replicates, and
// promotes on its own goroutine until Close. The server is marked clustered
// before anything else, so a write arriving ahead of the first election —
// or during any later one, while no forward path exists — is answered
// "retry" instead of being applied to this peer's table alone.
func (n *Node) Start() {
	n.srv.SetClustered(true)
	n.srv.SetStatusFunc(n.Status)
	n.wg.Add(1)
	go n.run()
}

// Close leaves the cluster and waits for the supervision loop to exit. The
// server itself is not closed — a test can stop the cluster machinery and
// keep serving.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	repl := n.repl
	n.repl = nil
	n.mu.Unlock()
	close(n.stop)
	if repl != nil {
		_ = repl.Close()
	}
	n.wg.Wait()
	n.srv.SetStatusFunc(nil)
	n.srv.SetWriteForwarder(nil)
	n.srv.SetClustered(false)
}

// Role returns this node's current cluster role.
func (n *Node) Role() byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// ReplLag returns the standby's current replication lag in stream seqnos
// (always 0 on a primary).
func (n *Node) ReplLag() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.primarySeq > n.appliedSeq {
		return n.primarySeq - n.appliedSeq
	}
	return 0
}

// Status is the /debug/registryz "cluster" section (installed via the
// server's SetStatusFunc).
func (n *Node) Status() any {
	n.mu.Lock()
	defer n.mu.Unlock()
	peers := make([]peerState, len(n.peers))
	copy(peers, n.peers)
	lag := uint64(0)
	if n.primarySeq > n.appliedSeq {
		lag = n.primarySeq - n.appliedSeq
	}
	return map[string]any{
		"role":          registry.RoleName(n.role),
		"index":         n.cfg.Index,
		"shards":        n.cfg.Shards,
		"primary_index": n.primaryIdx,
		"repl_lag":      lag,
		"applied_seq":   n.appliedSeq,
		"promotions":    n.promotions.Load(),
		"peers":         peers,
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

func (n *Node) isClosed() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

// sleep waits d or until Close.
func (n *Node) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-n.stop:
	}
}

// run is the supervision loop: find (or become) the primary, replicate
// until the link dies, repeat. Promotion is one-way — a primary serves
// until the process dies.
func (n *Node) run() {
	defer n.wg.Done()
	// Boot grace: give lower-index peers one failure-detection window to
	// come up before concluding they are dead. Peer 0 has no lower peers
	// and promotes immediately on a cold cluster.
	grace := time.Duration(n.cfg.FailAfter) * n.cfg.Heartbeat
	graceUntil := time.Now().Add(grace)
	for !n.isClosed() {
		primaryIdx, lowestAlive := n.probePeers()
		switch {
		case primaryIdx >= 0:
			// A claimed primary always wins, whatever its index — this is
			// how a rebooted ex-primary (index 0, say) rejoins as a standby
			// instead of stealing the role back and losing writes.
			n.runStandby(primaryIdx)
			// The link died: re-detect. Failover elections skip boot grace —
			// the peers answered heartbeats moments ago.
			graceUntil = time.Now()
		case lowestAlive == n.cfg.Index:
			if time.Now().Before(graceUntil) && n.cfg.Index != 0 {
				// Cold boot with lower-index peers unheard-from: give them
				// one failure-detection window before claiming the role.
				n.sleep(n.cfg.Heartbeat)
				continue
			}
			n.promote()
			n.runPrimary()
			return
		default:
			// Someone lower-indexed is alive but has not claimed primary yet
			// (it is in its own grace window or mid-promotion): wait for its
			// claim rather than racing it.
			n.sleep(n.cfg.Heartbeat)
		}
	}
}

// probePeers hellos every peer, refreshes the peer table, and returns the
// lowest index claiming primary (-1 if none) and the lowest reachable index
// (self counts as reachable).
func (n *Node) probePeers() (primaryIdx, lowestAlive int) {
	primaryIdx, lowestAlive = -1, n.cfg.Index
	now := time.Now()
	alive := 1 // self
	selfRole := registry.RoleName(n.Role())
	selfSeq := n.srv.WatchSeq()
	for i, addr := range n.cfg.Peers {
		if i == n.cfg.Index {
			n.updatePeer(i, func(p *peerState) {
				p.Alive = true
				p.Role = selfRole
				p.Seq = selfSeq
				p.LastSeen = now
			})
			continue
		}
		hi, err := registry.ProbeHello(addr, n.cfg.Heartbeat)
		if err != nil {
			n.updatePeer(i, func(p *peerState) { p.Alive = false })
			continue
		}
		alive++
		if i < lowestAlive {
			lowestAlive = i
		}
		if hi.Role == registry.RolePrimary && (primaryIdx == -1 || i < primaryIdx) {
			primaryIdx = i
		}
		n.updatePeer(i, func(p *peerState) {
			p.Alive = true
			p.Role = registry.RoleName(hi.Role)
			p.Seq = hi.Seq
			p.LastSeen = now
		})
	}
	n.aliveGauge.Set(int64(alive))
	return primaryIdx, lowestAlive
}

func (n *Node) updatePeer(i int, f func(*peerState)) {
	n.mu.Lock()
	f(&n.peers[i])
	n.mu.Unlock()
}

// promote makes this node the primary: writes go straight to the local
// table, the instance ID changes so every watcher (clients and standbys
// alike) discards its seqno bookkeeping and full-resyncs, and the hello
// extension starts claiming the role other peers defer to.
func (n *Node) promote() {
	n.mu.Lock()
	n.role = registry.RolePrimary
	n.primaryIdx = n.cfg.Index
	n.primarySeq = 0
	clear(n.forwarded) // this table is the authority now, and primaries never demote
	n.mu.Unlock()
	n.srv.SetWriteForwarder(nil)
	n.srv.BumpInstance()
	n.srv.SetHelloInfo(registry.RolePrimary, n.cfg.Index, n.cfg.Shards)
	n.promotions.Inc()
	n.roleGauge.Set(int64(registry.RolePrimary))
	n.lagGauge.Set(0)
	n.logf("cluster: peer %d promoted to primary (instance bumped, %d peers)", n.cfg.Index, len(n.cfg.Peers))
}

// runPrimary is the primary's steady state: keep the peer table fresh for
// Status until Close. Primaries never demote.
func (n *Node) runPrimary() {
	for !n.isClosed() {
		n.sleep(n.cfg.Heartbeat * 2)
		if n.isClosed() {
			return
		}
		n.probePeers()
	}
}

// runStandby attaches to the primary at index pi and replicates until the
// link is declared dead (connection loss or FailAfter missed heartbeats).
func (n *Node) runStandby(pi int) {
	addr := n.cfg.Peers[pi]
	onEvent := func(seq, fp uint64, blob []byte) { n.applyEvent(seq, fp, blob) }
	repl, err := registry.DialRepl(addr, n.cfg.Heartbeat*2, onEvent)
	if err != nil {
		n.logf("cluster: peer %d: dial primary %d (%s): %v", n.cfg.Index, pi, addr, err)
		n.sleep(n.cfg.Heartbeat)
		return
	}
	hi, err := repl.Hello(n.cfg.Heartbeat * 2)
	if err != nil || hi.Role != registry.RolePrimary {
		_ = repl.Close()
		if err != nil {
			n.logf("cluster: peer %d: hello primary %d: %v", n.cfg.Index, pi, err)
		}
		n.sleep(n.cfg.Heartbeat)
		return
	}

	// Resume from the persisted cursor when it belongs to this primary
	// incarnation; anything else means our seqnos are from another life and
	// only a full resync (afterSeq 0) is sound.
	curInst, curSeq := n.loadCursor()
	afterSeq := uint64(0)
	if curInst == hi.Instance && curInst != 0 {
		afterSeq = curSeq
	}
	n.mu.Lock()
	newPrimary := n.primaryInst != hi.Instance
	n.role = registry.RoleStandby
	n.primaryIdx = pi
	n.primaryInst = hi.Instance
	n.primarySeq = hi.Seq
	n.appliedSeq = afterSeq
	n.repl = repl
	closed := n.closed
	n.mu.Unlock()
	if closed {
		_ = repl.Close()
		return
	}
	n.srv.SetHelloInfo(registry.RoleStandby, n.cfg.Index, n.cfg.Shards)
	n.srv.SetWriteForwarder(func(fp uint64, blob []byte) error {
		if err := repl.Put(blob, n.cfg.Heartbeat*4); err != nil {
			return err
		}
		n.mu.Lock()
		n.forwarded[fp] = blob
		n.mu.Unlock()
		return nil
	})
	n.roleGauge.Set(int64(registry.RoleStandby))
	if newPrimary {
		if err := n.reannounce(repl); err != nil {
			n.logf("cluster: peer %d: re-announce to primary %d: %v", n.cfg.Index, pi, err)
			n.detachRepl(repl)
			return
		}
	}

	if _, err := repl.Watch(afterSeq, n.cfg.Heartbeat*2); err != nil {
		n.logf("cluster: peer %d: watch primary %d: %v", n.cfg.Index, pi, err)
		n.detachRepl(repl)
		return
	}
	n.logf("cluster: peer %d standby of primary %d (%s), resume after seq %d", n.cfg.Index, pi, addr, afterSeq)

	// Heartbeat loop: a hello every interval refreshes the primary's head
	// seqno (feeding the lag gauge); FailAfter consecutive misses — or the
	// replication connection dying — is a dead primary.
	misses := 0
	tick := time.NewTicker(n.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			n.detachRepl(repl)
			return
		case <-repl.Done():
			n.logf("cluster: peer %d: replication link to primary %d lost", n.cfg.Index, pi)
			n.detachRepl(repl)
			return
		case <-tick.C:
			hb, err := repl.Hello(n.cfg.Heartbeat)
			if err != nil {
				misses++
				if misses >= n.cfg.FailAfter {
					n.logf("cluster: peer %d: primary %d missed %d heartbeats, declaring dead", n.cfg.Index, pi, misses)
					n.detachRepl(repl)
					return
				}
				continue
			}
			misses = 0
			n.mu.Lock()
			n.primarySeq = hb.Seq
			lag := int64(0)
			if hb.Seq > n.appliedSeq {
				lag = int64(hb.Seq - n.appliedSeq)
			}
			n.mu.Unlock()
			n.lagGauge.Set(lag)
			n.updatePeer(pi, func(p *peerState) {
				p.Alive = true
				p.Role = registry.RoleName(hb.Role)
				p.Seq = hb.Seq
				p.LastSeen = time.Now()
			})
		}
	}
}

// reannounce re-forwards every write this standby accepted under earlier
// primary incarnations to the one it just attached to. The primary damps a
// blob it already holds, so only the writes the dead primary never streamed
// to its successor cost anything. An error leaves the set for the next attach.
func (n *Node) reannounce(repl *registry.ReplSession) error {
	n.mu.Lock()
	blobs := make([][]byte, 0, len(n.forwarded))
	for _, blob := range n.forwarded {
		blobs = append(blobs, blob)
	}
	n.mu.Unlock()
	for _, blob := range blobs {
		if err := repl.Put(blob, n.cfg.Heartbeat*4); err != nil {
			return err
		}
	}
	return nil
}

// detachRepl closes the replication session and removes the forwarder (the
// next attach or promotion installs the right write path). It returns only
// once the session's read pump has exited: applyEvent runs on that pump, and
// one still in flight would write this session's seqno, cursor and snapshot
// over the next attachment's, or after Close returned.
func (n *Node) detachRepl(repl *registry.ReplSession) {
	_ = repl.Close()
	<-repl.Done()
	n.mu.Lock()
	if n.repl == repl {
		n.repl = nil
	}
	n.mu.Unlock()
	n.srv.SetWriteForwarder(nil)
}

// applyEvent stores one replicated mutation (on the replication session's
// read pump, so application order is stream order) and advances the cursor.
func (n *Node) applyEvent(seq, fp uint64, blob []byte) {
	changed, err := n.srv.ApplyReplicated(fp, blob)
	if err != nil {
		n.logf("cluster: peer %d: apply seq %d fp %016x: %v", n.cfg.Index, seq, fp, err)
		return
	}
	if changed {
		n.applied.Inc()
	} else {
		n.damped.Inc()
	}
	n.mu.Lock()
	if seq > n.appliedSeq {
		n.appliedSeq = seq
	}
	inst, cur := n.primaryInst, n.appliedSeq
	lag := int64(0)
	if n.primarySeq > cur {
		lag = int64(n.primarySeq - cur)
	}
	n.mu.Unlock()
	n.lagGauge.Set(lag)
	n.saveCursor(inst, cur)
}

// cursorFormat is the spool schema for the replication cursor: which
// primary incarnation the standby's seqno belongs to, and the last stream
// seqno applied. One record, rewritten atomically after every apply — the
// same write-temp-then-rename discipline as the table snapshot, so a crash
// leaves either cursor, never a torn one. A cursor that disagrees with the
// primary's instance is discarded (full resync), so at worst a stale cursor
// costs over-delivery of idempotent upserts, never a gap.
var cursorFormat = func() *pbio.Format {
	f, err := pbio.NewFormat("cluster.cursor", []pbio.Field{
		{Name: "instance", Kind: pbio.Unsigned, Size: 8},
		{Name: "seq", Kind: pbio.Unsigned, Size: 8},
	})
	if err != nil {
		panic(err)
	}
	return f
}()

func (n *Node) saveCursor(instance, seq uint64) {
	if n.cfg.Cursor == "" {
		return
	}
	tmp := n.cfg.Cursor + ".tmp"
	w, err := spool.Create(tmp)
	if err != nil {
		n.logf("cluster: cursor write: %v", err)
		return
	}
	rec := pbio.NewRecord(cursorFormat).
		MustSet("instance", pbio.Uint(instance)).
		MustSet("seq", pbio.Uint(seq))
	if err := w.Append(rec); err != nil {
		_ = w.Close()
		n.logf("cluster: cursor write: %v", err)
		return
	}
	if err := w.Close(); err != nil {
		n.logf("cluster: cursor write: %v", err)
		return
	}
	if err := os.Rename(tmp, n.cfg.Cursor); err != nil {
		n.logf("cluster: cursor write: %v", err)
	}
}

func (n *Node) loadCursor() (instance, seq uint64) {
	if n.cfg.Cursor == "" {
		return 0, 0
	}
	r, err := spool.Open(n.cfg.Cursor)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			n.logf("cluster: cursor read: %v", err)
		}
		return 0, 0
	}
	defer r.Close()
	for {
		rec, err := r.Next()
		if err == io.EOF || errors.Is(err, spool.ErrTruncated) {
			return instance, seq
		}
		if err != nil {
			n.logf("cluster: cursor read: %v", err)
			return 0, 0
		}
		iv, _ := rec.Get("instance")
		sv, _ := rec.Get("seq")
		instance, seq = iv.Uint64(), sv.Uint64()
	}
}
