package registry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Watch subscribes the client to the daemon's invalidation stream: from the
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
// (ErrWatchUnsupported means it predates the protocol — the client then
// stays on poll-on-miss, exactly the pre-watch behavior).
//
// After a connection failure the client resubscribes on its own with
// jittered backoff, resuming from the last event seqno it applied; the
// daemon replays anything missed in between (or resyncs the full table when
// it cannot prove continuity — e.g. it restarted), so no invalidation is
// lost across a reconnect.
func (c *Client) Watch() error {
	if c.children != nil {
		// Subscribe every replica; the cluster converges if any stream is
		// live, so only a unanimous failure is an error.
		var firstErr error
		ok := false
		for _, ch := range c.children {
			if err := ch.Watch(); err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				ok = true
			}
		}
		if ok {
			return nil
		}
		return firstErr
	}
	return c.watch(modeNormal)
}

// watch coalesces concurrent subscription attempts; background resubscribe
// attempts pass modeProbe, so their dial failures do not refresh the down
// state.
func (c *Client) watch(mode rpcMode) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.watchDisabled {
		c.mu.Unlock()
		return fmt.Errorf("%w (disabled by option)", ErrWatchUnsupported)
	}
	if c.watchPending {
		c.mu.Unlock()
		return nil // an attempt is already in flight; coalesce
	}
	c.watchPending = true
	// Arm resubscription now, not after the first success: a client that
	// boots while the daemon is down (mid-failover, say) must keep retrying
	// on its own, or it never converges.
	c.wantWatch = true
	c.mu.Unlock()
	err := c.watchOnce(mode)
	c.mu.Lock()
	c.watchPending = false
	if errors.Is(err, ErrWatchUnsupported) {
		c.wantWatch = false // a pre-watch daemon: stop retrying for good
	} else if err != nil && c.sess == nil && !c.closed {
		// The attempt failed without even a live session (dial failure): no
		// session loss fires for it, so arm the retry here.
		c.scheduleResubLocked()
	}
	c.mu.Unlock()
	return err
}

// watchOnce performs one hello + subscribe round-trip pair.
func (c *Client) watchOnce(mode rpcMode) error {
	resp, err := c.rpc(opHello, nil, mode)
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
	c.mu.Lock()
	prevInst := c.watchInst
	instChanged := hi.Instance != prevInst
	c.watchInst = hi.Instance
	c.mu.Unlock()
	after := c.cache.cursor(instChanged)

	wresp, err := c.rpc(opWatch, binary.AppendUvarint(nil, after), mode)
	if err != nil {
		return err
	}
	if wresp.status != statusOK {
		return ErrWatchUnsupported
	}
	c.mu.Lock()
	resumed := c.everWatched
	c.everWatched = true
	onUp := c.onWatchUp
	c.mu.Unlock()
	if resumed {
		c.watchResub.Inc()
	}
	// A new daemon incarnation (restart or promoted standby) may have missed
	// writes the dead one acknowledged but never replicated; re-announce
	// everything this client published to close exactly that gap. The server
	// damps byte-identical re-registrations, so the common case is free.
	if instChanged && prevInst != 0 {
		go c.reregisterPublished()
	}
	if onUp != nil {
		go onUp(instChanged)
	}
	return nil
}

// onEvent applies one pushed table mutation to the caches: the negative
// entry (if any) is purged and the entry inserted into the LRU, so the
// staleness window of a cached miss collapses from the negative TTL to the
// push propagation latency. It is the session's event callback, so it runs on
// the read pump; blob is a private copy.
func (c *Client) onEvent(seq, fp uint64, blob []byte) {
	e, err := decodeEntry(blob)
	if err != nil || e.Format.Fingerprint() != fp {
		return // a malformed push must not poison the cache
	}
	c.cache.put(seq, fp, e.Format, e.Xforms)
	c.watchEvs.Inc()
	// Hand the fingerprint to the dispatcher instead of invoking callbacks
	// here: this runs on the session's read pump, and a callback that
	// blocks (say, on a morpher lock held by a decision that is itself
	// waiting for a fresh-read response from this very connection) would
	// stop the pump from ever delivering that response. Coalescing by
	// fingerprint is lossless for invalidation semantics.
	c.mu.Lock()
	if len(c.eventSubs) > 0 && !c.closed {
		if c.subPending == nil {
			c.subPending = make(map[uint64]struct{})
		}
		c.subPending[fp] = struct{}{}
		if !c.subRunning {
			c.subRunning = true
			go c.dispatchEvents()
		}
	}
	c.mu.Unlock()
}

// dispatchEvents drains subPending, invoking every registered event callback
// for each pending fingerprint, until the queue is empty or the client
// closes. It runs on its own goroutine so callbacks may block without
// stalling the watch pump; the caches already reflect every enqueued event
// by the time its callback fires.
func (c *Client) dispatchEvents() {
	for {
		c.mu.Lock()
		if c.closed || len(c.subPending) == 0 {
			c.subRunning = false
			c.mu.Unlock()
			return
		}
		pending := c.subPending
		c.subPending = make(map[uint64]struct{})
		subs := make([]func(fp uint64), 0, len(c.eventSubs))
		for _, fn := range c.eventSubs {
			subs = append(subs, fn)
		}
		c.mu.Unlock()
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
// event for a fingerprint, not once per event. On a cluster client the
// registration spans every replica's stream (the same mutation may fire fn
// once per replica that pushes it).
func (c *Client) OnEvent(fn func(fp uint64)) func() {
	if c.children != nil {
		removes := make([]func(), 0, len(c.children))
		for _, ch := range c.children {
			removes = append(removes, ch.OnEvent(fn))
		}
		return func() {
			for _, r := range removes {
				r()
			}
		}
	}
	c.mu.Lock()
	if c.eventSubs == nil {
		c.eventSubs = make(map[uint64]func(fp uint64))
	}
	id := c.nextSub
	c.nextSub++
	c.eventSubs[id] = fn
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		delete(c.eventSubs, id)
		c.mu.Unlock()
	}
}

// scheduleResubLocked (mu held) arms one jittered resubscription attempt
// after the backoff, if a subscription is wanted (ever attempted) — not only
// if one ever succeeded.
func (c *Client) scheduleResubLocked() {
	if c.closed || c.watchDisabled || !c.wantWatch || c.resubTimer != nil {
		return
	}
	delay := c.backoff + time.Duration(rand.Int63n(int64(c.backoff)/2+1))
	c.resubTimer = time.AfterFunc(delay, c.resubscribe)
}

// resubscribe is the resubTimer callback: one Watch attempt, rescheduled on
// transient failure.
func (c *Client) resubscribe() {
	c.mu.Lock()
	c.resubTimer = nil
	if c.closed || c.sess != nil {
		// Closed, or a foreground RPC already redialed — and every
		// successful dial re-subscribes on its own.
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	err := c.watch(modeProbe)
	if err == nil || errors.Is(err, ErrWatchUnsupported) || errors.Is(err, ErrClosed) {
		return
	}
	c.mu.Lock()
	c.scheduleResubLocked()
	c.mu.Unlock()
}
