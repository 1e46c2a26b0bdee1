package registry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// replSession is one raw connection to a registry daemon and the package's
// only RPC mux: request ids, the pending-call table, the read pump and the
// response/event dispatch live here and nowhere else. Two owners sit on top
// of it. A standby Server (cluster.go) keeps one open to its primary and
// drives it directly — it wants the unfiltered event stream (every mutation,
// in order, with its seqno) and explicit control over hello/watch timing,
// because the seqno bookkeeping *is* the replication state. Each Client peer
// dials one on demand and layers its cache, down gate and resubscription
// policy above it.
//
// Events are delivered on the session's read pump via the onEvent callback
// given to dialRepl; the blob is a private copy, safe to retain. RPCs are
// safe for concurrent use. When the connection dies the Done channel closes
// and every outstanding RPC fails.
type replSession struct {
	conn    *wire.Conn
	onEvent func(seq, fp uint64, blob []byte)

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan rpcResp
	dead    bool

	done     chan struct{}
	doneOnce sync.Once
}

// Session errors. Owners tell the two apart: a timed-out RPC leaves the
// session usable (the response may merely be late), anything else means the
// connection is gone.
var (
	errSessionLost = errors.New("registry: connection lost")
	errRPCTimeout  = errors.New("registry: rpc timeout")
)

// dialRepl connects to the registry daemon at addr. onEvent (may be nil)
// receives every opEvent push; it runs on the read pump, so a slow callback
// backpressures the stream rather than dropping events.
func dialRepl(addr string, timeout time.Duration, onEvent func(seq, fp uint64, blob []byte)) (*replSession, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("registry: dial %s: %w", addr, err)
	}
	r := &replSession{
		onEvent: onEvent,
		pending: make(map[uint64]chan rpcResp),
		done:    make(chan struct{}),
	}
	r.conn = wire.NewConn(nc, wire.WithControlHook(wire.FrameRegistry, func(body []byte) error {
		r.onFrame(body)
		return nil
	}))
	go r.pump()
	return r, nil
}

// probeHello dials addr, performs one hello round-trip, and closes the
// connection: the cluster's election and heartbeat primitive.
func probeHello(addr string, timeout time.Duration) (helloInfo, error) {
	r, err := dialRepl(addr, timeout, nil)
	if err != nil {
		return helloInfo{}, err
	}
	defer r.Close()
	return r.Hello(timeout)
}

// Hello performs one capability/instance/seqno probe, returning the parsed
// response including the cluster extension.
func (r *replSession) Hello(timeout time.Duration) (helloInfo, error) {
	resp, err := r.rpc(opHello, nil, timeout)
	if err != nil {
		return helloInfo{}, err
	}
	if resp.status != statusOK {
		return helloInfo{}, fmt.Errorf("registry: repl hello rejected: %s", resp.payload)
	}
	return parseHelloInfo(resp.payload)
}

// Watch subscribes to the mutation stream after the given seqno (0 = full
// resync) and returns the daemon's current seqno. Events then flow to the
// onEvent callback until the connection dies.
func (r *replSession) Watch(afterSeq uint64, timeout time.Duration) (uint64, error) {
	resp, err := r.rpc(opWatch, binary.AppendUvarint(nil, afterSeq), timeout)
	if err != nil {
		return 0, err
	}
	if resp.status != statusOK {
		return 0, fmt.Errorf("registry: repl watch rejected: %s", resp.payload)
	}
	seq, used := binary.Uvarint(resp.payload)
	if used <= 0 {
		return 0, fmt.Errorf("registry: repl watch: bad seqno echo")
	}
	return seq, nil
}

// Put publishes one already-encoded entry blob — the standby's write-forward
// primitive (the blob arrived encoded from the standby's own client; there
// is nothing to re-encode).
func (r *replSession) Put(blob []byte, timeout time.Duration) error {
	resp, err := r.rpc(opPut, blob, timeout)
	if err != nil {
		return err
	}
	if resp.status != statusOK {
		return fmt.Errorf("registry: repl put rejected: %s", resp.payload)
	}
	return nil
}

// Done closes when the connection has died (peer reset, Close, protocol
// violation). A standby's supervisor selects on it to trigger failover
// handling.
func (r *replSession) Done() <-chan struct{} { return r.done }

// Close tears the session down; outstanding RPCs fail, Done closes.
func (r *replSession) Close() error { return r.conn.Close() }

// rpcResp is one matched RPC response (payload is a private copy).
type rpcResp struct {
	status  byte
	payload []byte
	err     error
}

// rpc sends one request and waits for its matched response, the deadline
// (errRPCTimeout), or the connection's death (errSessionLost).
func (r *replSession) rpc(op byte, payload []byte, timeout time.Duration) (rpcResp, error) {
	r.mu.Lock()
	if r.dead {
		r.mu.Unlock()
		return rpcResp{}, errSessionLost
	}
	r.nextID++
	id := r.nextID
	ch := make(chan rpcResp, 1)
	r.pending[id] = ch
	r.mu.Unlock()

	if err := r.conn.WriteControl(wire.FrameRegistry, appendRequest(nil, op, id, payload)); err != nil {
		r.mu.Lock()
		delete(r.pending, id)
		r.mu.Unlock()
		// The request died with the connection as surely as one already
		// written: callers drop the session either way.
		return rpcResp{}, fmt.Errorf("%w: rpc write: %v", errSessionLost, err)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		if resp.err != nil {
			return rpcResp{}, resp.err
		}
		return resp, nil
	case <-timer.C:
		r.mu.Lock()
		delete(r.pending, id)
		r.mu.Unlock()
		return rpcResp{}, fmt.Errorf("%w after %s", errRPCTimeout, timeout)
	case <-r.done:
		return rpcResp{}, errSessionLost
	}
}

// pump drives the read loop until the connection dies, then fails every
// outstanding RPC and closes Done.
func (r *replSession) pump() {
	for {
		if _, _, err := r.conn.ReadEncoded(); err != nil {
			break
		}
	}
	_ = r.conn.Close()
	r.mu.Lock()
	r.dead = true
	for id, ch := range r.pending {
		delete(r.pending, id)
		ch <- rpcResp{err: errSessionLost}
	}
	r.mu.Unlock()
	r.doneOnce.Do(func() { close(r.done) })
}

// onFrame dispatches one response or event frame from the pump.
func (r *replSession) onFrame(body []byte) {
	op, reqID, rest, err := parseHeader(body)
	if err != nil {
		return
	}
	if op == opEvent {
		if r.onEvent == nil {
			return
		}
		fp, blob, perr := parseEvent(rest)
		if perr != nil {
			return
		}
		// Copy: the frame body aliases the pump conn's read buffer,
		// and the standby retains the blob in its table.
		r.onEvent(reqID, fp, append([]byte(nil), blob...))
		return
	}
	switch op {
	case opGetResp, opPutResp, opHelloResp, opWatchResp, opUnwatchResp:
	default:
		return
	}
	if len(rest) < 1 {
		return
	}
	resp := rpcResp{status: rest[0], payload: append([]byte(nil), rest[1:]...)}
	r.mu.Lock()
	ch := r.pending[reqID]
	delete(r.pending, reqID)
	r.mu.Unlock()
	if ch != nil {
		ch <- resp
	}
}
