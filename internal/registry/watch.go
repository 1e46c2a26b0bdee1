package registry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Watch subscribes the client to every peer's invalidation stream: from the
// acknowledgment on, every table mutation is pushed as an event that purges
// any matching negative-TTL entry and inserts (or refreshes) the LRU entry —
// so a format registered elsewhere becomes resolvable here within the
// propagation latency of one push, instead of after the negative TTL
// expires. Subscribing also replays the daemon's current table (the seqno
// handshake degrades to a full resync for a fresh subscription), pre-warming
// the cache the way a long-lived intermediary wants.
//
// Watch is called automatically after every successful dial, so most users
// never need it; call it directly to subscribe eagerly (before any RPC
// traffic) or to learn whether the daemon supports watch at all
// (ErrWatchUnsupported means it predates the protocol — that peer then
// stays on poll-on-miss, exactly the pre-watch behavior). The error is
// reported only when no peer subscribed.
//
// After a connection failure the client resubscribes on its own with
// jittered backoff, resuming from the last event seqno it applied; the
// daemon replays anything missed in between (or resyncs the full table when
// it cannot prove continuity — e.g. it restarted), so no invalidation is
// lost across a reconnect.
func (c *Client) Watch() error {
	// Subscribe every peer; the client converges if any stream is live, so
	// only a unanimous failure is an error.
	var firstErr error
	ok := false
	for _, p := range c.peers {
		if err := p.watch(modeNormal); err == nil {
			ok = true
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if ok {
		return nil
	}
	return firstErr
}

// watch coalesces concurrent subscription attempts; background resubscribe
// attempts pass modeProbe, so their dial failures do not refresh the down
// state.
func (p *peer) watch(mode rpcMode) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if p.c.watchDisabled {
		p.mu.Unlock()
		return fmt.Errorf("%w (disabled by option)", ErrWatchUnsupported)
	}
	if p.watchPending {
		p.mu.Unlock()
		return nil // an attempt is already in flight; coalesce
	}
	p.watchPending = true
	// Arm resubscription now, not after the first success: a client that
	// boots while the daemon is down (mid-failover, say) must keep retrying
	// on its own, or it never converges.
	p.wantWatch = true
	p.mu.Unlock()
	err := p.watchOnce(mode)
	p.mu.Lock()
	p.watchPending = false
	if errors.Is(err, ErrWatchUnsupported) {
		p.wantWatch = false // a pre-watch daemon: stop retrying for good
	} else if err != nil && p.sess == nil && !p.closed {
		// The attempt failed without even a live session (dial failure): no
		// session loss fires for it, so arm the retry here.
		p.scheduleResubLocked()
	}
	p.mu.Unlock()
	return err
}

// watchOnce performs one hello + subscribe round-trip pair.
func (p *peer) watchOnce(mode rpcMode) error {
	resp, err := p.rpc(opHello, nil, mode)
	if err != nil {
		return err
	}
	if resp.status != statusOK {
		// A pre-watch daemon answers unknown ops with statusError: degrade
		// to poll-on-miss without arming resubscription.
		return ErrWatchUnsupported
	}
	hi, perr := parseHelloInfo(resp.payload)
	if perr != nil || hi.Caps&capWatch == 0 {
		return ErrWatchUnsupported
	}

	// A different instance ID means this is not the daemon our seqno came
	// from (restart, failover): resume from zero so the daemon resyncs the
	// full table rather than trusting seqnos across incarnations.
	p.mu.Lock()
	prevInst := p.watchInst
	instChanged := hi.Instance != prevInst
	p.watchInst = hi.Instance
	p.mu.Unlock()
	after := p.cache.cursor(instChanged)

	wresp, err := p.rpc(opWatch, binary.AppendUvarint(nil, after), mode)
	if err != nil {
		return err
	}
	if wresp.status != statusOK {
		return ErrWatchUnsupported
	}
	p.mu.Lock()
	resumed := p.everWatched
	p.everWatched = true
	p.mu.Unlock()
	if resumed {
		p.c.watchResub.Inc()
	}
	// A new daemon incarnation (restart or promoted standby) may have missed
	// writes the dead one acknowledged but never replicated; re-announce
	// everything this client published to close exactly that gap. The server
	// damps byte-identical re-registrations, so the common case is free.
	if instChanged && prevInst != 0 {
		go p.c.reconverge()
	}
	return nil
}

// onEvent applies one pushed table mutation to the caches: the negative
// entry (if any) is purged and the entry inserted into the LRU, so the
// staleness window of a cached miss collapses from the negative TTL to the
// push propagation latency. It is the session's event callback, so it runs on
// the read pump; blob is a private copy.
func (p *peer) onEvent(seq, fp uint64, blob []byte) {
	e, err := decodeEntry(blob)
	if err != nil || e.Format.Fingerprint() != fp {
		return // a malformed push must not poison the cache
	}
	p.cache.put(seq, fp, e.Format, e.Xforms)
	p.c.watchEvs.Inc()
	// Hand the fingerprint to the dispatcher instead of invoking callbacks
	// here: this runs on the session's read pump, and a callback that
	// blocks (say, on a morpher lock held by a decision that is itself
	// waiting for a fresh-read response from this very connection) would
	// stop the pump from ever delivering that response. Coalescing by
	// fingerprint is lossless for invalidation semantics.
	p.mu.Lock()
	if len(p.eventSubs) > 0 && !p.closed {
		if p.subPending == nil {
			p.subPending = make(map[uint64]struct{})
		}
		p.subPending[fp] = struct{}{}
		if !p.subRunning {
			p.subRunning = true
			go p.dispatchEvents()
		}
	}
	p.mu.Unlock()
}

// dispatchEvents drains subPending, invoking every registered event callback
// for each pending fingerprint, until the queue is empty or the peer closes.
// It runs on its own goroutine so callbacks may block without stalling the
// watch pump; the caches already reflect every enqueued event by the time its
// callback fires.
func (p *peer) dispatchEvents() {
	for {
		p.mu.Lock()
		if p.closed || len(p.subPending) == 0 {
			p.subRunning = false
			p.mu.Unlock()
			return
		}
		pending := p.subPending
		p.subPending = make(map[uint64]struct{})
		subs := make([]func(fp uint64), 0, len(p.eventSubs))
		for _, fn := range p.eventSubs {
			subs = append(subs, fn)
		}
		p.mu.Unlock()
		for fp := range pending {
			for _, fn := range subs {
				fn(fp)
			}
		}
	}
}

// OnEvent registers fn to run after every watch event this client applies to
// its caches, with the event's fingerprint. It returns a function that
// removes the registration — callers with a shorter lifetime than the client
// (a subscriber connection on a process-wide registry client) must call it
// on teardown or the client accumulates dead callbacks. fn runs on a
// dispatcher goroutine (never the watch pump) after the caches already
// reflect the event, so a callback that re-resolves the fingerprint sees the
// fresh entry, and it may block without stalling event application. Bursts
// are coalesced by fingerprint, so fn fires at least once after the last
// event for a fingerprint, not once per event. The registration spans every
// peer's stream (the same mutation may fire fn once per peer that pushes
// it).
func (c *Client) OnEvent(fn func(fp uint64)) func() {
	removes := make([]func(), 0, len(c.peers))
	for _, p := range c.peers {
		removes = append(removes, p.onEventSub(fn))
	}
	return func() {
		for _, r := range removes {
			r()
		}
	}
}

// onEventSub registers fn with this peer's dispatcher.
func (p *peer) onEventSub(fn func(fp uint64)) func() {
	p.mu.Lock()
	if p.eventSubs == nil {
		p.eventSubs = make(map[uint64]func(fp uint64))
	}
	id := p.nextSub
	p.nextSub++
	p.eventSubs[id] = fn
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		delete(p.eventSubs, id)
		p.mu.Unlock()
	}
}

// scheduleResubLocked (mu held) arms one jittered resubscription attempt
// after the backoff, if a subscription is wanted (ever attempted) — not only
// if one ever succeeded.
func (p *peer) scheduleResubLocked() {
	if p.closed || p.c.watchDisabled || !p.wantWatch || p.resubTimer != nil {
		return
	}
	backoff := p.c.backoff
	delay := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
	p.resubTimer = time.AfterFunc(delay, p.resubscribe)
}

// resubscribe is the resubTimer callback: one watch attempt, rescheduled on
// transient failure.
func (p *peer) resubscribe() {
	p.mu.Lock()
	p.resubTimer = nil
	if p.closed || p.sess != nil {
		// Closed, or a foreground RPC already redialed — and every
		// successful dial re-subscribes on its own.
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	err := p.watch(modeProbe)
	if err == nil || errors.Is(err, ErrWatchUnsupported) || errors.Is(err, ErrClosed) {
		return
	}
	p.mu.Lock()
	p.scheduleResubLocked()
	p.mu.Unlock()
}
