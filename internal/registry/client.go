package registry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pbio"
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
//
// The client is three layers, one file each:
//
//	repl.go    ReplSession — the connection and RPC mux (shared with internal/cluster)
//	cache.go   cache — positive LRU, negative TTL, singleflight
//	client.go  policy — down gate, publish ledger; watch.go: subscribe, resubscribe, event dispatch
type Client struct {
	addr    string
	timeout time.Duration
	backoff time.Duration

	misses     *obs.Counter   // registry.misses: cold fetches the daemon answered with an entry
	unknowns   *obs.Counter   // registry.unknowns: daemon round-trips answered "unknown fingerprint"
	errs       *obs.Counter   // registry.errors: transport-level RPC failures
	downs      *obs.Counter   // registry.downs: transitions into the down state
	watchEvs   *obs.Counter   // registry.watch_events: invalidation events applied
	watchResub *obs.Counter   // registry.watch_resubscribes: watch re-established after a failure
	reregs     *obs.Counter   // registry.reregisters: published entries re-announced after an instance change
	fetchNS    *obs.Histogram // registry.fetch_ns: cold resolution round-trip latency

	// Connection layer: one session to the daemon, redialed on demand. A
	// session that dies (its Done closes) or fails an RPC is dropped here and
	// the client enters the down state; see dropSessionLocked.
	mu        sync.Mutex
	closed    bool
	sess      *ReplSession
	downUntil time.Time
	published map[uint64]publishedEntry // entries the daemon acknowledged (Holds; re-registered on instance change)

	// Watch state (guarded by mu; the replay cursor lives in the cache with
	// the entries it orders). wantWatch arms automatic resubscription: it is
	// set the moment a subscription is *wanted* (Watch called, or any
	// successful dial's auto-subscribe), not only once one has succeeded — a
	// client that boots while the daemon is down (mid-failover, say) must
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
	// Callback dispatch is decoupled from the session's read pump: the pump
	// enqueues fingerprints here (coalesced — Invalidate-style callbacks are
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

	cache cache
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

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithClientObs attaches an observability registry; the client mirrors its
// cache and RPC activity into "registry.*" instruments.
func WithClientObs(reg *obs.Registry) ClientOption {
	return func(c *Client) {
		c.cache.hits = reg.Counter("registry.hits")
		c.misses = reg.Counter("registry.misses")
		c.cache.negHits = reg.Counter("registry.negative_hits")
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
			c.cache.negTTL = d
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
			c.cache.cap = n
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
		backoff:   DefaultBackoff,
		published: make(map[uint64]publishedEntry),
	}
	c.cache.init(DefaultCacheSize, DefaultNegTTL)
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
	sess := c.sess
	c.sess = nil
	children := c.children
	c.mu.Unlock()
	var err error
	if sess != nil {
		err = sess.Close() // in-flight RPCs fail; rpc reports them as ErrClosed
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
	resp, err := c.rpc(opPut, encodeEntry(f, xforms), modeNormal)
	if err != nil {
		return err
	}
	switch resp.status {
	case statusOK:
		fp := f.Fingerprint()
		c.mu.Lock()
		c.published[fp] = publishedEntry{format: f, xforms: xforms}
		c.mu.Unlock()
		c.cache.put(0, fp, f, xforms)
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
	return c.cache.holds(fp)
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
	return !c.closed && c.everWatched && c.sess != nil
}

// Resolve resolves a fingerprint to its format description and transform
// meta-data. With fresh false: LRU hit (allocation-free), negative-cache hit
// (ErrUnknownFingerprint), or a singleflight-deduplicated daemon round-trip.
//
// With fresh true it always asks the daemon, bypassing both caches and the
// down gate (modeForce). Fingerprints are structural, so an evolving protocol
// can legitimately reuse one (a reorder that returns to an earlier layout),
// and the daemon's entry — last write wins — then carries a transform set
// every cached copy predates; the watch event that would refresh those copies
// can lose the race to the data frame that needs it. This is the read for
// callers who suspect exactly that: it returns what the daemon holds NOW,
// refreshes the LRU with it (unless a concurrent watch event installed
// something fresher mid-flight), and on a cluster client unions the transform
// sets of every reachable replica so one lagging standby cannot hide a
// transform the primary already acknowledged. Failures leave the positive
// cache untouched; a daemon that answers "unknown" starts the negative TTL as
// any cold fetch does.
func (c *Client) Resolve(fp uint64, fresh bool) (*pbio.Format, []*core.Xform, error) {
	switch {
	case c.children != nil && fresh:
		return c.clusterResolveFresh(fp)
	case c.children != nil:
		return c.clusterResolve(fp)
	case fresh:
		return c.cache.refresh(fp, func() (*pbio.Format, []*core.Xform, error) { return c.fetch(fp, modeForce) })
	}
	return c.cache.resolve(fp, func() (*pbio.Format, []*core.Xform, error) { return c.fetch(fp, modeNormal) })
}

// ResolveFormat is Resolve through the caches. It implements
// wire.FormatResolver.
func (c *Client) ResolveFormat(fp uint64) (*pbio.Format, []*core.Xform, error) {
	return c.Resolve(fp, false)
}

// TransformsFor returns the transform meta-data registered for a
// fingerprint, or nil when it cannot be resolved. It is the
// core.TransformSource hook: consulted on the Morpher's cold decision path
// before a message is rejected, through the caches first and — only if that
// left the format unroutable — once more with fresh set.
func (c *Client) TransformsFor(fp uint64, fresh bool) []*core.Xform {
	_, xforms, err := c.Resolve(fp, fresh)
	if err != nil {
		return nil
	}
	return xforms
}

// fetch performs one cold resolution round-trip.
func (c *Client) fetch(fp uint64, mode rpcMode) (*pbio.Format, []*core.Xform, error) {
	var t0 time.Time
	if c.fetchNS != nil {
		t0 = time.Now()
	}
	var key [8]byte
	binary.LittleEndian.PutUint64(key[:], fp)
	resp, err := c.rpc(opGet, key[:], mode)
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
		c.cache.unknown(fp)
		return nil, nil, fmt.Errorf("%w: %016x", ErrUnknownFingerprint, fp)
	default:
		return nil, nil, fmt.Errorf("registry: get %016x: %s", fp, resp.payload)
	}
}

// rpcMode says how an RPC treats the client's down state.
type rpcMode uint8

const (
	// modeNormal is foreground traffic: refused with ErrDown inside the
	// backoff window, and a failed dial (re-)enters it.
	modeNormal rpcMode = iota

	// modeProbe is a background watch resubscription attempt. It differs in
	// one rule: a failed dial does not refresh the down state. The client
	// already entered it when the connection died, and the probe repeats
	// every ~backoff — letting it re-mark down each time would pin the client
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
// waits for its matched response or the deadline. A timeout marks the client
// down; a write failure or a lost connection drops the session.
func (c *Client) rpc(op byte, payload []byte, mode rpcMode) (rpcResp, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return rpcResp{}, ErrClosed
	}
	if mode != modeForce && time.Now().Before(c.downUntil) {
		c.mu.Unlock()
		return rpcResp{}, fmt.Errorf("%w until %s", ErrDown, c.downUntil.Format(time.RFC3339))
	}
	sess := c.sess
	if sess == nil {
		var err error
		if sess, err = c.dialLocked(); err != nil {
			if mode == modeNormal {
				c.markDownLocked()
				c.scheduleResubLocked()
			}
			c.mu.Unlock()
			c.errs.Inc()
			return rpcResp{}, err
		}
	}
	c.mu.Unlock()

	resp, err := sess.rpc(op, payload, c.timeout)
	if err == nil {
		if mode == modeForce {
			c.mu.Lock()
			c.downUntil = time.Time{}
			c.mu.Unlock()
		}
		return resp, nil
	}
	c.errs.Inc()
	timedOut := errors.Is(err, errRPCTimeout)
	if !timedOut {
		_ = sess.Close() // a failed write leaves the pump running; make the loss official
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.closed:
		return rpcResp{}, ErrClosed
	case timedOut:
		c.markDownLocked()
	default:
		c.dropSessionLocked(sess)
	}
	return rpcResp{}, err
}

// dialLocked connects a new session to the daemon and watches it for loss.
func (c *Client) dialLocked() (*ReplSession, error) {
	sess, err := DialRepl(c.addr, c.timeout, c.onEvent)
	if err != nil {
		return nil, err
	}
	c.sess = sess
	// The session can die with no RPC in flight to notice it.
	go func() {
		<-sess.Done()
		c.mu.Lock()
		c.dropSessionLocked(sess)
		c.mu.Unlock()
	}()
	// Every fresh connection (re)subscribes to the invalidation stream,
	// unless a Watch call is the very reason we are dialing. Best-effort and
	// asynchronous: a daemon that predates watch answers with an error and
	// the client silently stays on poll-on-miss.
	if !c.watchDisabled && !c.watchPending {
		go func() { _ = c.Watch() }()
	}
	return sess, nil
}

// dropSessionLocked reacts to a dead session: forget it (if still current)
// and enter the down state. It is reached both from an RPC that failed on the
// session and from the session's Done watcher; whichever comes first wins and
// the other finds the session already superseded, so one loss marks the
// client down once and arms one resubscribe.
func (c *Client) dropSessionLocked(sess *ReplSession) {
	if c.sess != sess {
		return // already dropped, superseded by a redial, or the client closed
	}
	c.sess = nil
	c.markDownLocked()
	// The subscription died with the connection; arm a jittered background
	// resubscribe so invalidations resume even if no foreground RPC ever
	// redials.
	c.scheduleResubLocked()
}

func (c *Client) markDownLocked() {
	c.downUntil = time.Now().Add(c.backoff)
	c.downs.Inc()
	if c.onDown != nil {
		go c.onDown()
	}
}

// reregisterPublished re-announces every format this client successfully
// registered. Called after the watch stream attaches to a daemon incarnation
// other than the one that acknowledged them.
func (c *Client) reregisterPublished() {
	c.mu.Lock()
	entries := c.publishedLocked()
	c.mu.Unlock()
	for _, e := range entries {
		if err := c.Register(e.format, e.xforms...); err == nil {
			c.reregs.Inc()
		}
	}
}

// publishedLocked snapshots the publish ledger.
func (c *Client) publishedLocked() []publishedEntry {
	entries := make([]publishedEntry, 0, len(c.published))
	for _, e := range c.published {
		entries = append(entries, e)
	}
	return entries
}
