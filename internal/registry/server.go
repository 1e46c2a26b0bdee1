package registry

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/tap"
	"repro/internal/wire"
)

// tableEntry is one stored format: the encoded entry blob (returned verbatim
// to resolvers — the server never re-encodes) plus inspection metadata.
type tableEntry struct {
	blob    []byte
	name    string
	fields  int
	xforms  int
	addedAt time.Time
	hits    atomic.Uint64
}

// Server is the format-registry daemon core: a fingerprint-keyed table of
// format + transform meta-data served over wire framing. cmd/formatd wraps
// it with flags, signals and the debug HTTP server; tests embed it directly.
type Server struct {
	mu    sync.RWMutex
	table map[uint64]*tableEntry

	// Connection bookkeeping, so Close can tear down a live daemon (tests
	// kill formatd mid-run to prove clients degrade to in-band exchange).
	connMu sync.Mutex
	lns    []net.Listener
	active map[net.Conn]struct{}
	closed bool

	// Watch/invalidation stream state. Lock order: mu before watchMu (put
	// appends events while holding mu; pumps never hold watchMu while taking
	// mu). instance identifies this incarnation so clients can detect
	// restarts; only a promotion changes it.
	watchMu   sync.Mutex
	watchCond *sync.Cond
	watchers  map[*wire.Conn]*watcher
	ring      []watchEvent
	ringCap   int
	seq       uint64 // seqno of the latest event (0 = none)
	instance  uint64

	// Replication (cluster.go). peers, self and heartbeat are fixed by
	// WithPeers; cursorPath is derived from the snapshot path.
	peers      []string
	self       int
	heartbeat  time.Duration
	cursorPath string // "" = cursor not persisted

	// The supervisor's live state, guarded by replMu. role is the server's
	// one record of its role: opPut, hello and /debug/registryz all read it
	// here. repl is a standby's session to its primary and doubles as its
	// write-forward path (nil: none — mid-election, or not a standby).
	replMu      sync.Mutex
	role        byte
	repl        *replSession
	primaryIdx  int    // index of the primary this server follows (== self when primary)
	primaryInst uint64 // instance ID of that primary's daemon
	appliedSeq  uint64 // last primary-stream seqno applied locally
	primarySeq  uint64 // latest seqno heard from the primary (hello/watch)
	peerTable   []peerState
	// forwarded holds every write this standby forwarded to a primary, by
	// fingerprint (the blob is the slice the local table stores). An ack
	// proves the primary held the write, not that any other standby does —
	// replication is asynchronous — so the peer promoted after that primary
	// dies may never have seen it; see reannounce.
	forwarded map[uint64][]byte
	stop      chan struct{}  // closed by Close: the supervisor exits
	superWG   sync.WaitGroup // the supervisor goroutine

	snapshotPath string // "" = snapshots disabled
	lastSnapErr  error  // outcome of the most recent snapshot write (under mu)

	tap *tap.Tap // nil disables wire capture

	reg        *obs.Registry
	gets       *obs.Counter
	puts       *obs.Counter
	unk        *obs.Counter
	rerrs      *obs.Counter
	conns      *obs.Gauge
	size       *obs.Gauge
	watchEvs   *obs.Counter
	watchGauge *obs.Gauge
	roleGauge  *obs.Gauge   // cluster.role: 1 primary, 2 standby
	lagGauge   *obs.Gauge   // cluster.repl_lag: primary seq - applied seq
	aliveGauge *obs.Gauge   // cluster.peers_alive
	promotions *obs.Counter // cluster.promotions
	applied    *obs.Counter // cluster.applied: replicated mutations stored
	damped     *obs.Counter // cluster.damped: byte-identical echoes dropped
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerObs attaches an observability registry; the daemon mirrors its
// activity into "formatd.*" instruments.
func WithServerObs(reg *obs.Registry) ServerOption {
	return func(s *Server) { s.reg = reg }
}

// WithServerTap attaches a wire-level flight recorder: every daemon
// connection's frames (registry RPCs included) are offered to per-connection
// capture rings, recorded only while the tap is armed. cmd/formatd exposes
// the rings at /debug/tapz. Nil disables capture.
func WithServerTap(t *tap.Tap) ServerOption {
	return func(s *Server) { s.tap = t }
}

// WithSnapshotPath enables table persistence: the table is loaded from path
// at construction (a missing file is an empty table) and rewritten, via the
// self-describing spool framing, after every mutation.
func WithSnapshotPath(path string) ServerOption {
	return func(s *Server) { s.snapshotPath = path }
}

// NewServer returns a registry server, loading the snapshot when one is
// configured and present. A corrupt snapshot is an error — silently serving
// a partial table would defeat the suppression protocol — except for a torn
// final frame, which is the expected shape of a crash mid-snapshot and
// drops only the entry being written. A server with a peer set (WithPeers)
// starts its replication supervisor before returning; Close stops it.
func NewServer(opts ...ServerOption) (*Server, error) {
	s := &Server{
		table:      make(map[uint64]*tableEntry),
		watchers:   make(map[*wire.Conn]*watcher),
		instance:   newInstance(),
		ringCap:    DefaultWatchRing,
		primaryIdx: -1,
		forwarded:  make(map[uint64][]byte),
		stop:       make(chan struct{}),
	}
	s.watchCond = sync.NewCond(&s.watchMu)
	for _, o := range opts {
		o(s)
	}
	if len(s.peers) > 0 && (s.self < 0 || s.self >= len(s.peers)) {
		return nil, fmt.Errorf("registry: peer index %d out of range for %d peers", s.self, len(s.peers))
	}
	s.gets = s.reg.Counter("formatd.gets")
	s.puts = s.reg.Counter("formatd.puts")
	s.unk = s.reg.Counter("formatd.unknown")
	s.rerrs = s.reg.Counter("formatd.rpc_errors")
	s.conns = s.reg.Gauge("formatd.conns")
	s.size = s.reg.Gauge("formatd.entries")
	s.watchEvs = s.reg.Counter("formatd.watch_events")
	s.watchGauge = s.reg.Gauge("formatd.watchers")
	if s.snapshotPath != "" {
		if err := s.loadSnapshot(); err != nil {
			return nil, err
		}
	}
	s.startReplication()
	return s, nil
}

// newInstance draws a random daemon instance ID.
func newInstance() uint64 {
	return uint64(time.Now().UnixNano()) ^ rand.Uint64()
}

// Put stores an entry, replacing any previous one for the same fingerprint,
// and persists the table when snapshots are enabled. It is the direct-API
// form of an opPut RPC (tests and preloading use it).
func (s *Server) Put(f *pbio.Format, xforms ...*core.Xform) error {
	if f == nil {
		return errors.New("registry: nil format")
	}
	return s.putBlob(f.Fingerprint(), encodeEntry(f, xforms))
}

// putBlob validates and stores one encoded entry under fp.
func (s *Server) putBlob(fp uint64, blob []byte) error {
	return s.put(fp, blob, true)
}

func (s *Server) put(fp uint64, blob []byte, persist bool) error {
	e, err := decodeEntry(blob)
	if err != nil {
		return err
	}
	if got := e.Format.Fingerprint(); got != fp {
		return fmt.Errorf("registry: entry fingerprint %016x does not match key %016x", got, fp)
	}
	s.mu.Lock()
	// Merge, don't replace: fingerprints are structural, so a later protocol
	// generation can reuse one, and from then on several writers legitimately
	// hold different vintages of the "same" entry — the current publisher
	// with the full transform set, and older peers (or their reconvergence
	// sweeps, or a replication replay) with a subset. Last-write-wins would
	// let any stale writer stomp the newest edges at an arbitrary later
	// moment; the union makes every write monotone and idempotent, which is
	// the invariant the cluster's resync-everything recovery story leans on.
	// A write whose transforms are already all present (same destination,
	// same code) collapses to a no-op: no event, no snapshot.
	if old := s.table[fp]; old != nil {
		oe, derr := decodeEntry(old.blob)
		if derr == nil {
			merged, changed := mergeXforms(oe.Xforms, e.Xforms)
			if !changed {
				s.mu.Unlock()
				s.puts.Inc()
				return nil
			}
			e.Xforms = merged
			blob = encodeEntry(e.Format, merged)
		}
	}
	te := &tableEntry{
		blob:    blob,
		name:    e.Format.Name(),
		fields:  e.Format.NumFields(),
		xforms:  len(e.Xforms),
		addedAt: time.Now(),
	}
	s.table[fp] = te
	s.size.Set(int64(len(s.table)))
	// Append the mutation to the watch stream while still holding mu, so
	// event order matches table order (two racing puts on one fingerprint
	// leave the table and the last event agreeing). Snapshot loads count
	// too: they advance the seqno past the preloaded entries, so a fresh
	// subscriber (afterSeq 0) replays the whole restored table.
	s.appendEventLocked(fp, blob)
	if persist {
		err = s.saveSnapshotLocked()
		s.lastSnapErr = err
	}
	s.mu.Unlock()
	s.puts.Inc()
	return err
}

// mergeXforms unions incoming transform edges into old, keyed by destination
// fingerprint. An edge with an unseen destination is appended; one whose
// destination is already present replaces the stored code when it differs
// (the newest write wins for that destination — a publisher that fixed a
// transform's code must be able to ship the fix). changed reports whether
// the result differs from old; old is never mutated in place.
func mergeXforms(old, incoming []*core.Xform) ([]*core.Xform, bool) {
	merged := old
	byTo := make(map[uint64]int, len(old))
	for i, x := range old {
		byTo[x.To.Fingerprint()] = i
	}
	changed := false
	for _, x := range incoming {
		to := x.To.Fingerprint()
		if i, ok := byTo[to]; ok {
			if merged[i].Code == x.Code {
				continue
			}
			if !changed {
				merged = append([]*core.Xform(nil), merged...)
			}
			merged[i] = x
			changed = true
			continue
		}
		if !changed {
			merged = append([]*core.Xform(nil), merged...)
		}
		merged = append(merged, x)
		byTo[to] = len(merged) - 1
		changed = true
	}
	return merged, changed
}

// getBlob returns the encoded entry for fp, or nil.
func (s *Server) getBlob(fp uint64) []byte {
	s.mu.RLock()
	te := s.table[fp]
	s.mu.RUnlock()
	if te == nil {
		s.unk.Inc()
		return nil
	}
	te.hits.Add(1)
	s.gets.Inc()
	return te.blob
}

// Resolve returns the stored entry for fp — the direct-API form of an opGet
// RPC (ErrUnknownFingerprint when absent).
func (s *Server) Resolve(fp uint64) (Entry, error) {
	blob := s.getBlob(fp)
	if blob == nil {
		return Entry{}, fmt.Errorf("%w: %016x", ErrUnknownFingerprint, fp)
	}
	return decodeEntry(blob)
}

// Len returns the number of stored entries.
func (s *Server) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.table)
}

// WatchSeq returns the current event seqno: the number of table mutations
// (including snapshot-restored entries) the watch stream has ever emitted.
func (s *Server) WatchSeq() uint64 {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	return s.seq
}

// applyReplicated stores an entry replicated from another daemon's watch
// stream. It behaves like putBlob with one crucial damping rule: a blob that
// is byte-identical to the one already stored is a no-op — no local event is
// emitted and no snapshot is rewritten. That makes replication convergent:
// an entry echoing back around a replication topology (standby applies the
// primary's event, a client of the standby re-registers it, ...) dies out
// after one hop instead of ping-ponging events forever. The returned bool
// reports whether the table changed.
func (s *Server) applyReplicated(fp uint64, blob []byte) (bool, error) {
	s.mu.RLock()
	te := s.table[fp]
	same := te != nil && bytes.Equal(te.blob, blob)
	s.mu.RUnlock()
	if same {
		return false, nil
	}
	return true, s.putBlob(fp, blob)
}

// Serve accepts registry connections on ln until the listener closes.
// Each connection is one wire.Conn whose FrameRegistry control frames carry
// the RPCs; everything else on the connection follows normal wire rules
// (unknown control kinds skip, data frames are an error since the daemon
// registers no formats).
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		_ = ln.Close()
		return errors.New("registry: server closed")
	}
	s.lns = append(s.lns, ln)
	s.connMu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			_ = nc.Close()
			return nil
		}
		if s.active == nil {
			s.active = make(map[net.Conn]struct{})
		}
		s.active[nc] = struct{}{}
		s.connMu.Unlock()
		go s.handle(nc)
	}
}

// Close stops serving: the replication supervisor stops (Close returns only
// after any replication pump has exited), listeners close, and every
// established registry connection is torn down, so clients observe the
// daemon's death promptly rather than on their next RPC timeout.
func (s *Server) Close() error {
	s.stopReplication()
	s.connMu.Lock()
	s.closed = true
	lns := s.lns
	s.lns = nil
	conns := make([]net.Conn, 0, len(s.active))
	for nc := range s.active {
		conns = append(conns, nc)
	}
	s.connMu.Unlock()
	// Stop every watcher pump: the connections are about to die, but a pump
	// parked in cond.Wait would otherwise leak.
	s.watchMu.Lock()
	for conn, w := range s.watchers {
		w.stopped = true
		delete(s.watchers, conn)
		s.watchGauge.Add(-1)
	}
	s.watchCond.Broadcast()
	s.watchMu.Unlock()
	var err error
	for _, ln := range lns {
		if cerr := ln.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	for _, nc := range conns {
		_ = nc.Close()
	}
	return err
}

// handle runs one connection's read loop; RPC dispatch happens in the
// control hook, responses are written back on the same connection.
func (s *Server) handle(nc net.Conn) {
	s.conns.Add(1)
	defer func() {
		s.conns.Add(-1)
		s.connMu.Lock()
		delete(s.active, nc)
		s.connMu.Unlock()
	}()
	var conn *wire.Conn
	opts := []wire.Option{wire.WithControlHook(wire.FrameRegistry, func(body []byte) error {
		return s.dispatch(conn, body)
	})}
	if s.tap != nil {
		ct := s.tap.NewConn(tap.Label{Proto: "registry", Role: "server", Peer: nc.RemoteAddr().String()})
		defer ct.Close()
		opts = append(opts, wire.WithFrameTap(ct))
	}
	conn = wire.NewConn(nc, opts...)
	defer conn.Close()
	defer s.dropWatcher(conn)
	for {
		if _, _, err := conn.ReadEncoded(); err != nil {
			return // EOF, peer reset, or a protocol violation: drop the conn
		}
	}
}

// dispatch executes one RPC request and writes its response. Malformed
// frames are fatal to the connection (returning the error tears it down);
// well-formed requests the daemon cannot serve get an error response, so a
// client bug never wedges the transport.
func (s *Server) dispatch(conn *wire.Conn, body []byte) error {
	op, reqID, payload, err := parseHeader(body)
	if err != nil {
		s.rerrs.Inc()
		return err
	}
	switch op {
	case opGet:
		if len(payload) != 8 {
			s.rerrs.Inc()
			return fmt.Errorf("registry: opGet payload %d bytes, want 8", len(payload))
		}
		fp := binary.LittleEndian.Uint64(payload)
		if blob := s.getBlob(fp); blob != nil {
			return conn.WriteControl(wire.FrameRegistry, appendResponse(nil, opGetResp, reqID, statusOK, blob))
		}
		return conn.WriteControl(wire.FrameRegistry, appendResponse(nil, opGetResp, reqID, statusUnknown, nil))
	case opPut:
		status, msg := s.handlePut(payload)
		if status != statusOK {
			s.rerrs.Inc()
		}
		return conn.WriteControl(wire.FrameRegistry, appendResponse(nil, opPutResp, reqID, status, msg))
	case opHello:
		s.watchMu.Lock()
		seq, inst := s.seq, s.instance
		s.watchMu.Unlock()
		return conn.WriteControl(wire.FrameRegistry, appendResponse(nil, opHelloResp, reqID, statusOK,
			append(appendHello(nil, capWatch, inst, seq), s.Role())))
	case opWatch:
		afterSeq, used := binary.Uvarint(payload)
		if used <= 0 {
			s.rerrs.Inc()
			return conn.WriteControl(wire.FrameRegistry, appendResponse(nil, opWatchResp, reqID, statusError, []byte("bad afterSeq")))
		}
		seq := s.subscribe(conn, afterSeq)
		return conn.WriteControl(wire.FrameRegistry, appendResponse(nil, opWatchResp, reqID, statusOK,
			binary.AppendUvarint(nil, seq)))
	case opUnwatch:
		s.dropWatcher(conn)
		return conn.WriteControl(wire.FrameRegistry, appendResponse(nil, opUnwatchResp, reqID, statusOK, nil))
	default:
		s.rerrs.Inc()
		return conn.WriteControl(wire.FrameRegistry, appendResponse(nil, opGetResp, reqID, statusError, []byte("unknown op")))
	}
}

// handlePut answers one opPut with its status and error text. One rule: a
// primary applies the write, a standby with a forward path forwards it, and
// anything else answers statusRetry.
func (s *Server) handlePut(payload []byte) (status byte, msg []byte) {
	e, err := decodeEntry(payload)
	if err != nil {
		return statusError, []byte(err.Error())
	}
	blob := append([]byte(nil), payload...)
	fp := e.Format.Fingerprint()
	s.replMu.Lock()
	role, repl := s.role, s.repl
	s.replMu.Unlock()
	switch {
	case role == RolePrimary:
		err = s.putBlob(fp, blob)
	case repl != nil:
		// Standby: the primary is the write authority. Forward first; only
		// an acknowledged write is applied locally (read-your-writes on this
		// replica — the echo from the primary's event stream is then damped
		// as an identical blob).
		if ferr := s.forward(repl, fp, blob); ferr != nil {
			// The primary died (or is dying) under this forward: the write
			// is retryable — here once a new primary exists, or on another
			// replica — and the next primary also gets it re-announced.
			return statusRetry, []byte(ferr.Error())
		}
		_, err = s.applyReplicated(fp, blob)
	default:
		// No write authority and no forward path: the election that will
		// produce one is still in flight (the old primary just died, or the
		// peer set is booting). Applying the write locally and acking OK
		// here would strand it on this one peer — acknowledged, yet
		// invisible to the eventual primary and every other replica.
		return statusRetry, []byte("no primary (election in progress)")
	}
	if err != nil {
		return statusError, []byte(err.Error())
	}
	return statusOK, nil
}
