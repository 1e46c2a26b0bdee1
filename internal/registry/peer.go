package registry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pbio"
)

// peer is a Client's view of one daemon: its session, redialed on demand, the
// down gate, the watch subscription and its event subscribers, and an LRU of
// what this daemon answered. A session that dies (its Done closes) or fails
// an RPC is dropped and the peer enters the down state; see
// dropSessionLocked.
type peer struct {
	c    *Client // owner: settings, instruments, reconvergence
	addr string

	mu        sync.Mutex
	closed    bool
	sess      *replSession
	downUntil time.Time

	// Watch state (guarded by mu; the replay cursor lives in the cache with
	// the entries it orders). wantWatch arms automatic resubscription: it is
	// set the moment a subscription is *wanted* (Watch called, or any
	// successful dial's auto-subscribe), not only once one has succeeded — a
	// client that boots while the daemon is down (mid-failover, say) must
	// still converge on its own. watchPending coalesces concurrent
	// subscription attempts; watchInst is the daemon instance the seqno
	// belongs to, so a restarted daemon resets the replay cursor.
	watchPending bool
	wantWatch    bool
	everWatched  bool
	watchInst    uint64
	resubTimer   *time.Timer

	// Watch-event subscribers (guarded by mu): callbacks observing every
	// applied table mutation, keyed for removal. Consumers hook cache
	// invalidation here — e.g. a Morpher dropping its cached decision for a
	// fingerprint whose transform set just changed under it.
	eventSubs map[uint64]func(fp uint64)
	nextSub   uint64
	// Callback dispatch is decoupled from the session's read pump: the pump
	// enqueues fingerprints here (coalesced — Invalidate-style callbacks are
	// idempotent per fp) and a dispatcher goroutine (subRunning) drains them.
	// A callback is allowed to block: if it contended on a lock held by a
	// caller that is itself waiting for an RPC response on this peer's
	// connection (a morpher mid-decision doing a fresh read), an in-pump
	// callback would wedge the pump and deadlock the response it waits for.
	subPending map[uint64]struct{}
	subRunning bool

	cache cache
}

// close tears down the connection and fails all in-flight RPCs.
func (p *peer) close() error {
	p.mu.Lock()
	p.closed = true
	if p.resubTimer != nil {
		p.resubTimer.Stop()
		p.resubTimer = nil
	}
	sess := p.sess
	p.sess = nil
	p.mu.Unlock()
	if sess != nil {
		return sess.Close() // in-flight RPCs fail; rpc reports them as ErrClosed
	}
	return nil
}

// down reports whether the peer is closed or inside its backoff window.
func (p *peer) down() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed || time.Now().Before(p.downUntil)
}

// watchActive reports whether this peer's invalidation stream is live.
func (p *peer) watchActive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.closed && p.everWatched && p.sess != nil
}

// register puts one entry (blob is its encoding) and, on acknowledgment,
// installs it in the LRU.
func (p *peer) register(f *pbio.Format, xforms []*core.Xform, blob []byte) error {
	resp, err := p.rpc(opPut, blob, modeNormal)
	if err != nil {
		return err
	}
	switch resp.status {
	case statusOK:
		p.cache.put(0, f.Fingerprint(), f, xforms)
		return nil
	case statusRetry:
		// A cluster peer without a current write path (election in flight,
		// or its forward to the primary failed). The write was not applied.
		return fmt.Errorf("%w: put %q: %s", ErrRetryable, f.Name(), resp.payload)
	default:
		return fmt.Errorf("registry: put %q rejected: %s", f.Name(), resp.payload)
	}
}

// resolve answers fp through the caches, or with fresh set straight from the
// daemon past the caches and the down gate.
func (p *peer) resolve(fp uint64, fresh bool) (*pbio.Format, []*core.Xform, error) {
	if fresh {
		return p.cache.refresh(fp, func() (*pbio.Format, []*core.Xform, error) { return p.fetch(fp, modeForce) })
	}
	return p.cache.resolve(fp, func() (*pbio.Format, []*core.Xform, error) { return p.fetch(fp, modeNormal) })
}

// fetch performs one cold resolution round-trip.
func (p *peer) fetch(fp uint64, mode rpcMode) (*pbio.Format, []*core.Xform, error) {
	c := p.c
	var t0 time.Time
	if c.fetchNS != nil {
		t0 = time.Now()
	}
	var key [8]byte
	binary.LittleEndian.PutUint64(key[:], fp)
	resp, err := p.rpc(opGet, key[:], mode)
	if c.fetchNS != nil {
		c.fetchNS.ObserveNS(time.Since(t0).Nanoseconds())
	}
	if err != nil {
		return nil, nil, err
	}
	// Counted per status below: misses are round-trips the daemon answered
	// with an entry, unknowns the ones it answered "unknown fingerprint" —
	// previously both inflated misses AND the repeats then counted as
	// negative_hits, double-billing every unknown.
	switch resp.status {
	case statusOK:
		c.misses.Inc()
		e, derr := decodeEntry(resp.payload)
		if derr != nil {
			return nil, nil, derr
		}
		if got := e.Format.Fingerprint(); got != fp {
			return nil, nil, fmt.Errorf("registry: daemon answered %016x with entry %016x", fp, got)
		}
		return e.Format, e.Xforms, nil
	case statusUnknown:
		c.unknowns.Inc()
		p.cache.unknown(fp)
		return nil, nil, fmt.Errorf("%w: %016x", ErrUnknownFingerprint, fp)
	default:
		return nil, nil, fmt.Errorf("registry: get %016x: %s", fp, resp.payload)
	}
}

// rpcMode says how an RPC treats the peer's down state.
type rpcMode uint8

const (
	// modeNormal is foreground traffic: refused with ErrDown inside the
	// backoff window, and a failed dial (re-)enters it.
	modeNormal rpcMode = iota

	// modeProbe is a background watch resubscription attempt. It differs in
	// one rule: a failed dial does not refresh the down state. The peer
	// already entered it when the connection died, and the probe repeats
	// every ~backoff — letting it re-mark down each time would pin the peer
	// down forever, and the suppressor would never re-enter the optimistic
	// post-backoff mode the wire layer's park/NACK/re-announce recovery is
	// designed around. A probe that got as far as a live connection reports
	// failures normally.
	modeProbe

	// modeForce passes the down gate: it attempts a real dial and round-trip
	// even inside the post-failure backoff window. The gate exists to keep
	// ordinary traffic from hammering a dead daemon, but the fresh read is a
	// last consult before rejecting live data — and the replica most likely
	// to hold the newest entry after a failover is exactly the just-restarted
	// one the gate still writes off. A forced round-trip that succeeds clears
	// the down state: the daemon has demonstrably answered, so making cached
	// reads and the Holds suppressor wait out the rest of the backoff would be
	// pure lag. It shares the probe exemption: a fresh read retrying through
	// the window must not keep pushing the deadline out.
	modeForce
)

// rpc sends one request over the current session (dialing one if needed) and
// waits for its matched response or the deadline. A timeout marks the peer
// down; a write failure or a lost connection drops the session.
func (p *peer) rpc(op byte, payload []byte, mode rpcMode) (rpcResp, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return rpcResp{}, ErrClosed
	}
	if until := p.downUntil; mode != modeForce && time.Now().Before(until) {
		p.mu.Unlock()
		return rpcResp{}, fmt.Errorf("%w until %s", ErrDown, until.Format(time.RFC3339))
	}
	sess := p.sess
	if sess == nil {
		var err error
		if sess, err = p.dialLocked(); err != nil {
			if mode == modeNormal {
				p.markDownLocked()
				p.scheduleResubLocked()
			}
			p.mu.Unlock()
			p.c.errs.Inc()
			return rpcResp{}, err
		}
	}
	p.mu.Unlock()

	resp, err := sess.rpc(op, payload, p.c.timeout)
	if err == nil {
		if mode == modeForce {
			p.mu.Lock()
			p.downUntil = time.Time{}
			p.mu.Unlock()
		}
		return resp, nil
	}
	p.c.errs.Inc()
	timedOut := errors.Is(err, errRPCTimeout)
	if !timedOut {
		_ = sess.Close() // a failed write leaves the pump running; make the loss official
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.closed:
		return rpcResp{}, ErrClosed
	case timedOut:
		p.markDownLocked()
	default:
		p.dropSessionLocked(sess)
	}
	return rpcResp{}, err
}

// dialLocked connects a new session to the daemon and watches it for loss.
func (p *peer) dialLocked() (*replSession, error) {
	sess, err := dialRepl(p.addr, p.c.timeout, p.onEvent)
	if err != nil {
		return nil, err
	}
	p.sess = sess
	// The session can die with no RPC in flight to notice it.
	go func() {
		<-sess.Done()
		p.mu.Lock()
		p.dropSessionLocked(sess)
		p.mu.Unlock()
	}()
	// Every fresh connection (re)subscribes to the invalidation stream,
	// unless a Watch call is the very reason we are dialing. Best-effort and
	// asynchronous: a daemon that predates watch answers with an error and
	// the peer silently stays on poll-on-miss.
	if !p.c.watchDisabled && !p.watchPending {
		go func() { _ = p.watch(modeNormal) }()
	}
	return sess, nil
}

// dropSessionLocked reacts to a dead session: forget it (if still current)
// and enter the down state. It is reached both from an RPC that failed on the
// session and from the session's Done watcher; whichever comes first wins and
// the other finds the session already superseded, so one loss marks the peer
// down once and arms one resubscribe.
func (p *peer) dropSessionLocked(sess *replSession) {
	if p.sess != sess {
		return // already dropped, superseded by a redial, or the peer closed
	}
	p.sess = nil
	p.markDownLocked()
	// The subscription died with the connection; arm a jittered background
	// resubscribe so invalidations resume even if no foreground RPC ever
	// redials.
	p.scheduleResubLocked()
}

// markDownLocked enters the down state and has the owner reconverge: the
// entries this peer acknowledged may have died with it.
func (p *peer) markDownLocked() {
	p.downUntil = time.Now().Add(p.c.backoff)
	p.c.downs.Inc()
	go p.c.reconverge()
}
