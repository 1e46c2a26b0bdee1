package registry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/wire"
)

// Client defaults.
const (
	DefaultTimeout   = 2 * time.Second // per-RPC deadline
	DefaultNegTTL    = 5 * time.Second // unknown-fingerprint memory
	DefaultBackoff   = 2 * time.Second // down-state duration after a transport failure
	DefaultCacheSize = 1024            // resolved-entry LRU capacity
)

// Client is the in-process side of the format registry: a cached,
// deduplicated resolver plugging into all three integration points —
// wire.WithResolver (it implements wire.FormatResolver), the
// wire.WithFormatSuppressor predicate (Holds), and core.WithTransformSource
// (TransformsFor).
//
// The client dials lazily and fails softly. Any transport failure (dial,
// write, timeout, connection drop) flips it into a "down" state for a
// backoff period during which Holds reports false — so senders resume
// in-band format frames — and Resolve fails fast with ErrDown — so
// receivers park and NACK instead of stalling on a dead daemon. Cached
// entries keep serving throughout: a registry outage only costs the
// fingerprints nobody has seen yet.
type Client struct {
	addr     string
	timeout  time.Duration
	negTTL   time.Duration
	backoff  time.Duration
	cacheCap int

	hits       *obs.Counter   // registry.hits: resolutions served from the LRU
	misses     *obs.Counter   // registry.misses: cold fetches the daemon answered with an entry
	negHits    *obs.Counter   // registry.negative_hits: unknown-fingerprint cache hits
	unknowns   *obs.Counter   // registry.unknowns: daemon round-trips answered "unknown fingerprint"
	errs       *obs.Counter   // registry.errors: transport-level RPC failures
	downs      *obs.Counter   // registry.downs: transitions into the down state
	watchEvs   *obs.Counter   // registry.watch_events: invalidation events applied
	watchResub *obs.Counter   // registry.watch_resubscribes: watch re-established after a failure
	reregs     *obs.Counter   // registry.reregisters: published entries re-announced after an instance change
	fetchNS    *obs.Histogram // registry.fetch_ns: cold resolution round-trip latency

	// Connection layer: one wire.Conn to the daemon, redialed on demand,
	// with in-flight RPCs matched to responses by request id.
	mu        sync.Mutex
	closed    bool
	conn      *wire.Conn
	nextID    uint64
	pending   map[uint64]chan rpcResp
	downUntil time.Time
	published map[uint64]publishedEntry // entries the daemon acknowledged (Holds; re-registered on instance change)

	// Watch state (guarded by mu except watchSeq, which lives under cmu
	// with the caches it orders). wantWatch arms automatic resubscription:
	// it is set the moment a subscription is *wanted* (Watch called, or any
	// successful dial's auto-subscribe), not only once one has succeeded —
	// a client that boots while the daemon is down (mid-failover, say) must
	// still converge on its own. watchPending coalesces concurrent
	// subscription attempts; watchInst is the daemon instance the seqno
	// belongs to, so a restarted daemon resets the replay cursor.
	watchDisabled bool
	watchPending  bool
	wantWatch     bool
	everWatched   bool
	watchInst     uint64
	resubTimer    *time.Timer

	// Cluster-mode hooks (set only by NewClusterClient on its per-peer
	// children; both fire on their own goroutines). onDown fires on every
	// transition into the down state, onWatchUp after every successful watch
	// subscription with whether the daemon instance changed.
	onDown    func()
	onWatchUp func(instChanged bool)

	// Watch-event subscribers (guarded by mu): callbacks observing every
	// applied table mutation, keyed for removal. Consumers hook cache
	// invalidation here — e.g. a Morpher dropping its cached decision for a
	// fingerprint whose transform set just changed under it.
	eventSubs map[uint64]func(fp uint64)
	nextSub   uint64
	// Callback dispatch is decoupled from the watch pump: the pump enqueues
	// fingerprints here (coalesced — Invalidate-style callbacks are
	// idempotent per fp) and a dispatcher goroutine (subRunning) drains them.
	// A callback is allowed to block: if it contended on a lock held by a
	// caller that is itself waiting for an RPC response on this client's
	// connection (a morpher mid-decision doing a fresh read), an in-pump
	// callback would wedge the pump and deadlock the response it waits for.
	subPending map[uint64]struct{}
	subRunning bool

	// Cluster routing (set only on a NewClusterClient parent, which uses
	// none of the transport fields above): one child client per peer, and
	// the fingerprint-space shard count steering route(). reconverging
	// coalesces concurrent reconvergence sweeps (guarded by mu).
	children     []*Client
	shards       int
	reconverging bool

	// Cache layer: positive LRU + negative TTL map + singleflight table.
	cmu      sync.Mutex
	lru      map[uint64]*cacheEntry
	head     *cacheEntry // most recent
	tail     *cacheEntry // least recent
	neg      map[uint64]time.Time
	flight   map[uint64]*flightCall
	watchSeq uint64 // last event seqno applied to the caches
}

// rpcResp is one matched RPC response (payload is a private copy).
type rpcResp struct {
	status  byte
	payload []byte
	err     error
}

// publishedEntry is one format this client registered and the daemon
// acknowledged. Keeping the full entry (not just the fingerprint) lets the
// client re-announce everything it published when it discovers a daemon
// instance change — a promoted standby or a restarted primary may have
// missed writes the dead incarnation acknowledged but never replicated, and
// re-registration closes exactly that gap.
type publishedEntry struct {
	format *pbio.Format
	xforms []*core.Xform
}

// cacheEntry is one resolved format in the intrusive LRU list. gen is the
// watch-event seqno that installed (or last refreshed) the entry — 0 when it
// came from a cold fetch, a Register acknowledgment, or cluster read-repair.
// ResolveFormat compares gen against the seqno it observed before
// dispatching a cold fetch, so a fetch result that was overtaken by an
// invalidation event mid-flight can never overwrite the event's fresher
// entry.
type cacheEntry struct {
	fp         uint64
	format     *pbio.Format
	xforms     []*core.Xform
	gen        uint64
	prev, next *cacheEntry
}

// flightCall deduplicates concurrent misses on one fingerprint: followers
// wait on done and share the leader's outcome.
type flightCall struct {
	done   chan struct{}
	format *pbio.Format
	xforms []*core.Xform
	err    error
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithClientObs attaches an observability registry; the client mirrors its
// cache and RPC activity into "registry.*" instruments.
func WithClientObs(reg *obs.Registry) ClientOption {
	return func(c *Client) {
		c.hits = reg.Counter("registry.hits")
		c.misses = reg.Counter("registry.misses")
		c.negHits = reg.Counter("registry.negative_hits")
		c.unknowns = reg.Counter("registry.unknowns")
		c.errs = reg.Counter("registry.errors")
		c.downs = reg.Counter("registry.downs")
		c.watchEvs = reg.Counter("registry.watch_events")
		c.watchResub = reg.Counter("registry.watch_resubscribes")
		c.reregs = reg.Counter("registry.reregisters")
		c.fetchNS = reg.Histogram("registry.fetch_ns")
	}
}

// WithWatchDisabled turns off the watch/invalidation stream: the client
// never subscribes (not even automatically after its first dial) and relies
// purely on poll-on-miss resolution with negative TTLs, as before watch
// support existed. Useful to isolate cache behavior in tests and to pin the
// PR 4 wire profile.
func WithWatchDisabled() ClientOption {
	return func(c *Client) { c.watchDisabled = true }
}

// WithTimeout overrides the per-RPC deadline.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithNegTTL overrides how long an unknown-fingerprint answer is remembered.
func WithNegTTL(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.negTTL = d
		}
	}
}

// WithBackoff overrides the down-state duration after a transport failure.
func WithBackoff(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.backoff = d
		}
	}
}

// WithCacheSize overrides the resolved-entry LRU capacity.
func WithCacheSize(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.cacheCap = n
		}
	}
}

// NewClient returns a client for the daemon at addr. No connection is made
// until the first RPC, so constructing a client against a daemon that is
// not running (yet) is valid — everything degrades to in-band exchange.
func NewClient(addr string, opts ...ClientOption) *Client {
	c := &Client{
		addr:      addr,
		timeout:   DefaultTimeout,
		negTTL:    DefaultNegTTL,
		backoff:   DefaultBackoff,
		cacheCap:  DefaultCacheSize,
		pending:   make(map[uint64]chan rpcResp),
		published: make(map[uint64]publishedEntry),
		lru:       make(map[uint64]*cacheEntry),
		neg:       make(map[uint64]time.Time),
		flight:    make(map[uint64]*flightCall),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Close tears down the connection and fails all in-flight RPCs. On a
// cluster client it closes every per-peer child.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	if c.resubTimer != nil {
		c.resubTimer.Stop()
		c.resubTimer = nil
	}
	c.failPendingLocked(ErrClosed)
	conn := c.conn
	c.conn = nil
	children := c.children
	c.mu.Unlock()
	var err error
	if conn != nil {
		err = conn.Close()
	}
	for _, ch := range children {
		if cerr := ch.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Register publishes a format (and the transforms declared with it) to the
// daemon. On acknowledgment the fingerprint is remembered so Holds — and
// through it the wire-layer format suppressor — reports it resolvable, any
// negative-cache entry for the fingerprint is purged, and the entry is
// inserted into the LRU — a client that had resolved the fingerprint to
// ErrUnknownFingerprint must not keep serving the stale miss for the rest
// of the negative TTL after it registered that very format itself.
func (c *Client) Register(f *pbio.Format, xforms ...*core.Xform) error {
	if f == nil {
		return fmt.Errorf("registry: nil format")
	}
	if c.children != nil {
		return c.clusterRegister(f, xforms)
	}
	resp, err := c.rpc(opPut, encodeEntry(f, xforms))
	if err != nil {
		return err
	}
	switch resp.status {
	case statusOK:
		fp := f.Fingerprint()
		c.mu.Lock()
		c.published[fp] = publishedEntry{format: f, xforms: xforms}
		c.mu.Unlock()
		c.cmu.Lock()
		delete(c.neg, fp)
		c.insertLocked(fp, f, xforms)
		c.cmu.Unlock()
		return nil
	case statusRetry:
		// A cluster peer without a current write path (election in flight,
		// or its forward to the primary failed). The write was not applied.
		return fmt.Errorf("%w: put %q: %s", ErrRetryable, f.Name(), resp.payload)
	default:
		return fmt.Errorf("registry: put %q rejected: %s", f.Name(), resp.payload)
	}
}

// Holds reports whether the daemon is known to hold f's entry and the
// client is currently healthy. It is the wire.WithFormatSuppressor
// predicate: true means the peer can resolve the fingerprint out-of-band,
// so the in-band format frame may be skipped. An entry counts as held when
// this client published it (acknowledged Register) or resolved it from the
// daemon (LRU) — an intermediary that learned a format out-of-band can
// immediately suppress it downstream. While down it reports false — new
// connections re-announce in-band — and connections that already suppressed
// recover through the frameFormatReq protocol.
func (c *Client) Holds(f *pbio.Format) bool {
	if c.children != nil {
		for _, ch := range c.children {
			if ch.Holds(f) {
				return true
			}
		}
		return false
	}
	fp := f.Fingerprint()
	c.mu.Lock()
	down := c.closed || time.Now().Before(c.downUntil)
	_, published := c.published[fp]
	c.mu.Unlock()
	if down {
		return false
	}
	if published {
		return true
	}
	c.cmu.Lock()
	_, cached := c.lru[fp]
	c.cmu.Unlock()
	return cached
}

// Down reports whether the client cannot currently reach the daemon: it is
// in its backed-off down state, or it has been closed. Closed counts as
// down for the same reason it does in Holds — every RPC on a closed client
// fails with ErrClosed, so reporting "not down" would be a lie.
func (c *Client) Down() bool {
	if c.children != nil {
		for _, ch := range c.children {
			if !ch.Down() {
				return false
			}
		}
		return true // down only when every replica is
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed || time.Now().Before(c.downUntil)
}

// WatchActive reports whether the invalidation stream is currently live: a
// watch subscription succeeded (Watch or an automatic resubscribe) and the
// connection it rode is still up. False while the stream is being
// re-established after a failure — the window in which cached misses can go
// stale for a full negative TTL again. It is the signal /readyz watch
// probes want; a client that never subscribed (or whose daemon predates
// watch) reports false, since no invalidations are flowing.
func (c *Client) WatchActive() bool {
	if c.children != nil {
		for _, ch := range c.children {
			if ch.WatchActive() {
				return true
			}
		}
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.closed && c.everWatched && c.conn != nil
}

// ResolveFormat resolves a fingerprint to its format description and
// transform meta-data: LRU hit (allocation-free), negative-cache hit
// (ErrUnknownFingerprint), or a singleflight-deduplicated daemon round-trip.
// It implements wire.FormatResolver.
func (c *Client) ResolveFormat(fp uint64) (*pbio.Format, []*core.Xform, error) {
	if c.children != nil {
		return c.clusterResolve(fp)
	}
	c.cmu.Lock()
	if e := c.lru[fp]; e != nil {
		c.moveFrontLocked(e)
		// Copy the fields while still holding cmu: a watch event refreshes
		// entries in place, so dereferencing e after the unlock races it.
		f, xf := e.format, e.xforms
		c.cmu.Unlock()
		c.hits.Inc()
		return f, xf, nil
	}
	if exp, ok := c.neg[fp]; ok {
		if time.Now().Before(exp) {
			c.cmu.Unlock()
			c.negHits.Inc()
			return nil, nil, fmt.Errorf("%w: %016x (cached)", ErrUnknownFingerprint, fp)
		}
		delete(c.neg, fp)
	}
	if fc := c.flight[fp]; fc != nil {
		c.cmu.Unlock()
		<-fc.done
		return fc.format, fc.xforms, fc.err
	}
	fc := &flightCall{done: make(chan struct{})}
	c.flight[fp] = fc
	// Capture the watch seqno before the fetch leaves: an invalidation event
	// that lands on this fingerprint while the round-trip is in flight stamps
	// the entry with a higher gen, and the fetch result — a snapshot from
	// before the event — must then be discarded, not inserted.
	startSeq := c.watchSeq
	c.cmu.Unlock()

	fc.format, fc.xforms, fc.err = c.fetch(fp, false)

	c.cmu.Lock()
	delete(c.flight, fp)
	if e := c.lru[fp]; e != nil && e.gen > startSeq {
		// A watch event overtook the in-flight fetch: its entry is the
		// fresher truth. Serve it to this caller and every flight follower —
		// even when the daemon answered "unknown", which only means the
		// registration raced the fetch — and drop the negative entry that
		// stale unknown may have re-poisoned the cache with.
		delete(c.neg, fp)
		fc.format, fc.xforms, fc.err = e.format, e.xforms, nil
	} else if fc.err == nil {
		c.insertLocked(fp, fc.format, fc.xforms)
	}
	c.cmu.Unlock()
	close(fc.done)
	return fc.format, fc.xforms, fc.err
}

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
	return c.watch(false)
}

// watch coalesces concurrent subscription attempts; probe marks background
// resubscribe attempts, whose dial failures must not refresh the down state.
func (c *Client) watch(probe bool) error {
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
	err := c.watchOnce(probe)
	c.mu.Lock()
	c.watchPending = false
	if errors.Is(err, ErrWatchUnsupported) {
		c.wantWatch = false // a pre-watch daemon: stop retrying for good
	} else if err != nil && c.conn == nil && !c.closed {
		// The attempt failed without even a live connection (dial failure):
		// connFailed never fires for it, so arm the retry here.
		c.scheduleResubLocked()
	}
	c.mu.Unlock()
	return err
}

// watchOnce performs one hello + subscribe round-trip pair.
func (c *Client) watchOnce(probe bool) error {
	resp, err := c.rpcMaybeProbe(opHello, nil, probe)
	if err != nil {
		return err
	}
	if resp.status != statusOK {
		// A pre-watch daemon answers unknown ops with statusError: degrade
		// to poll-on-miss without arming resubscription.
		return ErrWatchUnsupported
	}
	caps, inst, _, perr := parseHello(resp.payload)
	if perr != nil || caps&capWatch == 0 {
		return ErrWatchUnsupported
	}

	// A different instance ID means this is not the daemon our seqno came
	// from (restart, failover): resume from zero so the daemon resyncs the
	// full table rather than trusting seqnos across incarnations.
	c.mu.Lock()
	prevInst := c.watchInst
	instChanged := inst != prevInst
	c.watchInst = inst
	c.mu.Unlock()
	c.cmu.Lock()
	if instChanged {
		c.watchSeq = 0
	}
	after := c.watchSeq
	c.cmu.Unlock()

	wresp, err := c.rpcMaybeProbe(opWatch, binary.AppendUvarint(nil, after), probe)
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

// reregisterPublished re-announces every format this client successfully
// registered. Called after the watch stream attaches to a daemon incarnation
// other than the one that acknowledged them.
func (c *Client) reregisterPublished() {
	c.mu.Lock()
	entries := make([]publishedEntry, 0, len(c.published))
	for _, e := range c.published {
		entries = append(entries, e)
	}
	c.mu.Unlock()
	for _, e := range entries {
		if err := c.Register(e.format, e.xforms...); err == nil {
			c.reregs.Inc()
		}
	}
}

// cacheDirect inserts a resolved entry into this client's LRU without a
// round-trip (cluster read-repair: a failover answer warms the preferred
// replica's cache so the next hit is local and allocation-free).
func (c *Client) cacheDirect(fp uint64, f *pbio.Format, xforms []*core.Xform) {
	c.cmu.Lock()
	delete(c.neg, fp)
	c.insertLocked(fp, f, xforms)
	c.cmu.Unlock()
}

// onEvent applies one pushed table mutation to the caches: the negative
// entry (if any) is purged and the entry inserted into the LRU, so the
// staleness window of a cached miss collapses from the negative TTL to the
// push propagation latency.
func (c *Client) onEvent(seq uint64, rest []byte) {
	fp, blob, err := parseEvent(rest)
	if err != nil {
		return
	}
	// Copy before decoding: the frame body aliases the pump conn's pooled
	// read buffer, while the decoded entry outlives this call in the LRU.
	e, derr := decodeEntry(append([]byte(nil), blob...))
	if derr != nil || e.Format.Fingerprint() != fp {
		return // a malformed push must not poison the cache
	}
	c.cmu.Lock()
	delete(c.neg, fp)
	c.insertLocked(fp, e.Format, e.Xforms)
	if ce := c.lru[fp]; ce != nil && seq > ce.gen {
		ce.gen = seq
	}
	if seq > c.watchSeq {
		c.watchSeq = seq
	}
	c.cmu.Unlock()
	c.watchEvs.Inc()
	// Hand the fingerprint to the dispatcher instead of invoking callbacks
	// here: this runs on the connection's read pump, and a callback that
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
	if c.closed || c.conn != nil {
		// Closed, or a foreground RPC already redialed — and every
		// successful dial re-subscribes on its own.
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	err := c.watch(true)
	if err == nil || errors.Is(err, ErrWatchUnsupported) || errors.Is(err, ErrClosed) {
		return
	}
	c.mu.Lock()
	c.scheduleResubLocked()
	c.mu.Unlock()
}

// TransformsFor returns the transform meta-data registered for a
// fingerprint, or nil when it cannot be resolved. It is the
// core.WithTransformSource hook: consulted on the Morpher's cold decision
// path before a message is rejected.
func (c *Client) TransformsFor(fp uint64) []*core.Xform {
	_, xforms, err := c.ResolveFormat(fp)
	if err != nil {
		return nil
	}
	return xforms
}

// ResolveFormatFresh resolves a fingerprint with a daemon round-trip,
// bypassing the LRU and negative caches. Fingerprints are structural, so an
// evolving protocol can legitimately reuse one (a reorder that returns to an
// earlier layout), and the daemon's entry — last write wins — then carries a
// transform set every cached copy predates; the watch event that would
// refresh those copies can lose the race to the data frame that needs it.
// This is the read for callers who suspect exactly that: it returns what the
// daemon holds NOW, refreshes the LRU with it (unless a concurrent watch
// event installed something fresher mid-flight), and on a cluster client
// unions the transform sets of every reachable replica so one lagging
// standby cannot hide a transform the primary already acknowledged. Failures
// leave the positive cache untouched; a daemon that answers "unknown" starts
// the negative TTL as any cold fetch does.
func (c *Client) ResolveFormatFresh(fp uint64) (*pbio.Format, []*core.Xform, error) {
	if c.children != nil {
		return c.clusterResolveFresh(fp)
	}
	c.cmu.Lock()
	startSeq := c.watchSeq
	c.cmu.Unlock()
	// Forced past the down gate: after a failover the replica most likely to
	// hold the entry is the just-restarted one still inside its backoff
	// window, and this read is the last consult before live data is rejected.
	f, xforms, err := c.fetch(fp, true)
	if err != nil {
		return nil, nil, err
	}
	c.cmu.Lock()
	if e := c.lru[fp]; e != nil && e.gen > startSeq {
		// A watch event overtook the fetch; its entry is the fresher truth.
		f, xforms = e.format, e.xforms
	} else {
		delete(c.neg, fp)
		c.insertLocked(fp, f, xforms)
	}
	c.cmu.Unlock()
	return f, xforms, nil
}

// TransformsForFresh is ResolveFormatFresh reduced to the transform list, or
// nil when the round-trip fails. It is the core.WithFreshTransformSource
// hook: the Morpher's last consultation before caching a reject.
func (c *Client) TransformsForFresh(fp uint64) []*core.Xform {
	_, xforms, err := c.ResolveFormatFresh(fp)
	if err != nil {
		return nil
	}
	return xforms
}

// fetch performs one cold resolution round-trip. force routes the RPC past
// the down-state gate (the fresh-read contract; see rpcForce).
func (c *Client) fetch(fp uint64, force bool) (*pbio.Format, []*core.Xform, error) {
	var t0 time.Time
	if c.fetchNS != nil {
		t0 = time.Now()
	}
	var key [8]byte
	binary.LittleEndian.PutUint64(key[:], fp)
	var resp rpcResp
	var err error
	if force {
		resp, err = c.rpcForce(opGet, key[:])
	} else {
		resp, err = c.rpc(opGet, key[:])
	}
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
		c.cmu.Lock()
		c.neg[fp] = time.Now().Add(c.negTTL)
		c.cmu.Unlock()
		return nil, nil, fmt.Errorf("%w: %016x", ErrUnknownFingerprint, fp)
	default:
		return nil, nil, fmt.Errorf("registry: get %016x: %s", fp, resp.payload)
	}
}

// rpc sends one request and waits for its matched response or the deadline.
func (c *Client) rpc(op byte, payload []byte) (rpcResp, error) {
	return c.rpcOpts(op, payload, false, false)
}

// rpcMaybeProbe is rpc with one twist for background watch probes: a failed
// dial does not refresh the down state. The client already entered it when
// the connection died, and the probe repeats every ~backoff — letting it
// re-mark down each time would pin the client down forever, and the
// suppressor would never re-enter the optimistic post-backoff mode the wire
// layer's park/NACK/re-announce recovery is designed around. A probe that
// got as far as a live connection reports failures normally.
func (c *Client) rpcMaybeProbe(op byte, payload []byte, probe bool) (rpcResp, error) {
	return c.rpcOpts(op, payload, probe, false)
}

// rpcForce is rpc past the down gate: it attempts a real dial and round-trip
// even while the client is inside its post-failure backoff window. The gate
// exists to keep ordinary traffic from hammering a dead daemon, but the
// fresh-read path (ResolveFormatFresh) is a last consult before rejecting
// live data — and the replica most likely to hold the newest entry after a
// failover is exactly the just-restarted one the gate still writes off. A
// forced round-trip that succeeds clears the down state: the daemon has
// demonstrably answered, so making cached reads and the Holds suppressor
// wait out the rest of the backoff would be pure lag.
func (c *Client) rpcForce(op byte, payload []byte) (rpcResp, error) {
	return c.rpcOpts(op, payload, false, true)
}

func (c *Client) rpcOpts(op byte, payload []byte, probe, force bool) (rpcResp, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return rpcResp{}, ErrClosed
	}
	if !force && time.Now().Before(c.downUntil) {
		c.mu.Unlock()
		return rpcResp{}, fmt.Errorf("%w until %s", ErrDown, c.downUntil.Format(time.RFC3339))
	}
	if c.conn == nil {
		if err := c.dialLocked(); err != nil {
			// Forced RPCs share the probe exemption: the client is already
			// down, and a fresh read retrying through the window must not
			// keep pushing the deadline out.
			if !probe && !force {
				c.markDownLocked()
				c.scheduleResubLocked()
			}
			c.mu.Unlock()
			c.errs.Inc()
			return rpcResp{}, err
		}
	}
	c.nextID++
	id := c.nextID
	ch := make(chan rpcResp, 1)
	c.pending[id] = ch
	conn := c.conn
	c.mu.Unlock()

	if err := conn.WriteControl(wire.FrameRegistry, appendRequest(nil, op, id, payload)); err != nil {
		c.connFailed(conn, err)
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		c.errs.Inc()
		return rpcResp{}, fmt.Errorf("registry: rpc write: %w", err)
	}

	timer := time.NewTimer(c.timeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		if resp.err != nil {
			c.errs.Inc()
			return rpcResp{}, resp.err
		}
		if force {
			c.mu.Lock()
			if time.Now().Before(c.downUntil) {
				c.downUntil = time.Time{}
			}
			c.mu.Unlock()
		}
		return resp, nil
	case <-timer.C:
		c.mu.Lock()
		delete(c.pending, id)
		c.markDownLocked()
		c.mu.Unlock()
		c.errs.Inc()
		return rpcResp{}, fmt.Errorf("registry: rpc timeout after %s", c.timeout)
	}
}

// dialLocked connects to the daemon and starts the response pump.
func (c *Client) dialLocked() error {
	nc, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return fmt.Errorf("registry: dial %s: %w", c.addr, err)
	}
	var conn *wire.Conn
	conn = wire.NewConn(nc, wire.WithControlHook(wire.FrameRegistry, func(body []byte) error {
		c.onResponse(body)
		return nil
	}))
	c.conn = conn
	go c.pump(conn)
	// Every fresh connection (re)subscribes to the invalidation stream,
	// unless a Watch call is the very reason we are dialing. Best-effort and
	// asynchronous: a daemon that predates watch answers with an error and
	// the client silently stays on poll-on-miss.
	if !c.watchDisabled && !c.watchPending {
		go func() { _ = c.Watch() }()
	}
	return nil
}

// pump drives the connection's read loop; registry responses arrive through
// the control hook, so ReadEncoded only ever returns on connection failure.
func (c *Client) pump(conn *wire.Conn) {
	for {
		if _, _, err := conn.ReadEncoded(); err != nil {
			c.connFailed(conn, fmt.Errorf("registry: connection lost: %w", err))
			return
		}
	}
}

// onResponse matches one response frame to its waiting RPC, and dispatches
// watch-event pushes (which have no waiting RPC — the reqID slot carries the
// event seqno). The payload is copied: the frame body aliases a pooled
// buffer owned by the pump's conn.
func (c *Client) onResponse(body []byte) {
	op, reqID, rest, err := parseHeader(body)
	if err != nil {
		return // not a frame we understand; ignore rather than kill the conn
	}
	if op == opEvent {
		c.onEvent(reqID, rest)
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
	c.mu.Lock()
	ch := c.pending[reqID]
	delete(c.pending, reqID)
	c.mu.Unlock()
	if ch != nil {
		ch <- resp
	}
}

// connFailed reacts to a dead connection: drop it (if still current), fail
// every in-flight RPC, and enter the down state.
func (c *Client) connFailed(conn *wire.Conn, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != conn {
		return // already superseded
	}
	_ = c.conn.Close()
	c.conn = nil
	c.failPendingLocked(err)
	if !c.closed {
		c.markDownLocked()
		// The subscription died with the connection; arm a jittered
		// background resubscribe so invalidations resume even if no
		// foreground RPC ever redials.
		c.scheduleResubLocked()
	}
}

func (c *Client) failPendingLocked(err error) {
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- rpcResp{err: err}
	}
}

func (c *Client) markDownLocked() {
	c.downUntil = time.Now().Add(c.backoff)
	c.downs.Inc()
	if c.onDown != nil {
		go c.onDown()
	}
}

// insertLocked adds a resolved entry at the LRU front, evicting the tail
// past capacity.
func (c *Client) insertLocked(fp uint64, f *pbio.Format, xforms []*core.Xform) {
	if e := c.lru[fp]; e != nil {
		e.format, e.xforms = f, xforms
		c.moveFrontLocked(e)
		return
	}
	e := &cacheEntry{fp: fp, format: f, xforms: xforms}
	c.lru[fp] = e
	c.pushFrontLocked(e)
	if len(c.lru) > c.cacheCap && c.tail != nil {
		evict := c.tail
		c.unlinkLocked(evict)
		delete(c.lru, evict.fp)
	}
}

func (c *Client) pushFrontLocked(e *cacheEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Client) unlinkLocked(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Client) moveFrontLocked(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}
