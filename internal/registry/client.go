package registry

import (
	"errors"
	"fmt"
	"math/rand"
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
// A Client talks to a formatd replica set; a single daemon is a set of one
// (NewClient). Fingerprints route by shard to a preferred peer: ShardOf(fp,
// shards) picks the shard, shard mod the peer count the peer. Reads try the
// preferred peer first and fail over across the rest; writes land on any
// reachable peer (standbys forward them to the primary).
//
// The client dials lazily and fails softly. Any transport failure (dial,
// write, timeout, connection drop) flips that peer into a "down" state for a
// backoff period during which it fails fast with ErrDown — so receivers park
// and NACK instead of stalling on a dead daemon — and stops counting toward
// Holds — so senders resume in-band format frames. Cached entries keep
// serving throughout: a registry outage only costs the fingerprints nobody
// has seen yet.
//
// The client is four layers:
//
//	repl.go    replSession — the connection and RPC mux (shared with the server's standby link)
//	cache.go   cache — positive LRU, negative TTL, singleflight
//	peer.go    peer — one daemon: down gate, RPC modes; watch.go: its subscribe, resubscribe, event dispatch
//	client.go  Client — routing, failover, read repair, the publish ledger and reconvergence
type Client struct {
	peers  []*peer
	shards int

	// Settings, fixed by the ClientOptions before the peers exist; every peer
	// reads them through its owner.
	timeout       time.Duration
	backoff       time.Duration
	negTTL        time.Duration
	cacheSize     int
	watchDisabled bool

	hits       *obs.Counter   // registry.hits: resolutions served from the LRU
	negHits    *obs.Counter   // registry.negative_hits: unknown-fingerprint cache hits
	misses     *obs.Counter   // registry.misses: cold fetches the daemon answered with an entry
	unknowns   *obs.Counter   // registry.unknowns: daemon round-trips answered "unknown fingerprint"
	errs       *obs.Counter   // registry.errors: transport-level RPC failures
	downs      *obs.Counter   // registry.downs: transitions into the down state
	watchEvs   *obs.Counter   // registry.watch_events: invalidation events applied
	watchResub *obs.Counter   // registry.watch_resubscribes: watch re-established after a failure
	reregs     *obs.Counter   // registry.reregisters: published entries re-announced by reconvergence
	fetchNS    *obs.Histogram // registry.fetch_ns: cold resolution round-trip latency

	// Guarded by mu. reconverging coalesces sweeps; resweep asks the running
	// sweep for one more pass, because a trigger it dropped could be the
	// instance change that lost what the sweep just re-announced.
	mu           sync.Mutex
	closed       bool
	published    map[uint64]publishedEntry
	reconverging bool
	resweep      bool
}

// publishedEntry is one format this client registered and a peer
// acknowledged. Keeping the full entry (not just the fingerprint) lets the
// client re-announce everything it published when a daemon instance changes
// or a peer goes down — a promoted standby or a restarted primary may have
// missed writes the dead incarnation acknowledged but never replicated, and
// re-registration closes exactly that gap. by is the acknowledging peer,
// whose health decides Holds.
type publishedEntry struct {
	format *pbio.Format
	xforms []*core.Xform
	by     *peer
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
// purely on poll-on-miss resolution with negative TTLs. Useful to isolate
// cache behavior in tests.
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

// WithCacheSize overrides the resolved-entry LRU capacity (per peer).
func WithCacheSize(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.cacheSize = n
		}
	}
}

// NewClient returns a client for the daemon at addr: a replica set of one.
// No connection is made until the first RPC, so constructing a client
// against a daemon that is not running (yet) is valid — everything degrades
// to in-band exchange.
func NewClient(addr string, opts ...ClientOption) *Client {
	return NewClusterClient([]string{addr}, 1, opts...)
}

// NewClusterClient returns a client for a formatd replica set, one peer per
// address. Each peer has its own connection and LRU, so a warm resolve is
// the same allocation-free lookup whatever the peer count.
//
// The client watches its peers for down transitions and daemon instance
// changes and reconverges: every format this process registered is
// re-announced, so a promoted standby that missed the primary's last
// acknowledged writes still ends up holding them (the server damps
// byte-identical re-registrations, so an already-replicated entry costs one
// no-op RPC).
//
// shards <= 1 means one shard: every fingerprint prefers peer 0 (the usual
// primary) and the others are pure failover targets.
func NewClusterClient(addrs []string, shards int, opts ...ClientOption) *Client {
	if len(addrs) == 0 {
		panic("registry: NewClusterClient needs at least one address")
	}
	c := &Client{
		shards:    max(shards, 1),
		timeout:   DefaultTimeout,
		backoff:   DefaultBackoff,
		negTTL:    DefaultNegTTL,
		cacheSize: DefaultCacheSize,
		published: make(map[uint64]publishedEntry),
	}
	for _, o := range opts {
		o(c)
	}
	for _, addr := range addrs {
		p := &peer{c: c, addr: addr}
		p.cache.init(c.cacheSize, c.negTTL, c.hits, c.negHits)
		c.peers = append(c.peers, p)
	}
	return c
}

// Close tears down every peer's connection and fails all in-flight RPCs.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	var err error
	for _, p := range c.peers {
		if perr := p.close(); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// route maps a fingerprint to the index of its preferred peer.
func (c *Client) route(fp uint64) int {
	return ShardOf(fp, c.shards) % len(c.peers)
}

// Register publishes a format (and the transforms declared with it) through
// the first reachable peer, preferred first. A standby forwards the write to
// the primary before acknowledging, so success from any peer means the
// primary holds the entry. On acknowledgment the entry enters the publish
// ledger, so Holds — and through it the wire-layer format suppressor —
// reports it resolvable, and the acknowledging peer's negative-cache entry
// for the fingerprint is purged and its LRU filled — a client that had
// resolved the fingerprint to ErrUnknownFingerprint must not keep serving the
// stale miss for the rest of the negative TTL after it registered that very
// format itself.
func (c *Client) Register(f *pbio.Format, xforms ...*core.Xform) error {
	if f == nil {
		return fmt.Errorf("registry: nil format")
	}
	fp := f.Fingerprint()
	blob := encodeEntry(f, xforms)
	start := c.route(fp)
	var firstErr, retryable error
	for i := range c.peers {
		p := c.peers[(start+i)%len(c.peers)]
		err := p.register(f, xforms, blob)
		if err == nil {
			c.mu.Lock()
			c.published[fp] = publishedEntry{format: f, xforms: xforms, by: p}
			c.mu.Unlock()
			return nil
		}
		if retryable == nil && errors.Is(err, ErrRetryable) {
			retryable = err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	// A retryable refusal (a standby with no write path: election in flight)
	// dominates transport errors from other peers — typically the dead
	// primary that caused the election. The caller can usefully wait and
	// retry, because a write path is about to exist; reporting the transport
	// error instead would read as "cluster unreachable" when it is not.
	if retryable != nil {
		return retryable
	}
	return firstErr
}

// Holds reports whether a healthy peer is known to hold f's entry. It is the
// wire.WithFormatSuppressor predicate: true means the receiver can resolve
// the fingerprint out-of-band, so the in-band format frame may be skipped.
// An entry counts as held when this client published it and the peer that
// acknowledged it is up, or when an up peer resolved it (LRU) — an
// intermediary that learned a format out-of-band can immediately suppress it
// downstream. While the peers are down it reports false — new connections
// re-announce in-band — and connections that already suppressed recover
// through the frameFormatReq protocol.
func (c *Client) Holds(f *pbio.Format) bool {
	fp := f.Fingerprint()
	c.mu.Lock()
	e, published := c.published[fp]
	c.mu.Unlock()
	if published && !e.by.down() {
		return true
	}
	for _, p := range c.peers {
		if !p.down() && p.cache.holds(fp) {
			return true
		}
	}
	return false
}

// Down reports whether the client cannot currently reach any daemon: every
// peer is in its backed-off down state, or the client has been closed.
// Closed counts as down for the same reason it does in Holds — every RPC on
// a closed client fails with ErrClosed, so reporting "not down" would be a
// lie.
func (c *Client) Down() bool {
	for _, p := range c.peers {
		if !p.down() {
			return false
		}
	}
	return true
}

// WatchActive reports whether an invalidation stream is currently live: a
// peer's watch subscription succeeded (Watch or an automatic resubscribe)
// and the connection it rode is still up. False while the streams are being
// re-established after a failure — the window in which cached misses can go
// stale for a full negative TTL again. It is the signal /readyz watch probes
// want; a client that never subscribed (or whose daemons predate watch)
// reports false, since no invalidations are flowing.
func (c *Client) WatchActive() bool {
	for _, p := range c.peers {
		if p.watchActive() {
			return true
		}
	}
	return false
}

// Resolve resolves a fingerprint to its format description and transform
// meta-data. With fresh false it asks the preferred peer — LRU hit
// (allocation-free), negative-cache hit (ErrUnknownFingerprint), or a
// singleflight-deduplicated daemon round-trip — and fails over across the
// rest on transport errors and on "unknown fingerprint" too: a standby that
// has not yet applied the registration honestly does not know the entry, so
// one peer's unknown is lag until every reachable peer agrees. An answer from
// a non-preferred peer is read-repaired into the preferred peer's LRU so the
// next resolve is a local hit. The error, when every peer fails, is the
// preferred peer's.
//
// With fresh true it always asks the daemons, bypassing both caches and the
// down gate (modeForce). Fingerprints are structural, so an evolving protocol
// can legitimately reuse one (a reorder that returns to an earlier layout),
// and the daemon's entry — last write wins — then carries a transform set
// every cached copy predates; the watch event that would refresh those copies
// can lose the race to the data frame that needs it. This is the read for
// callers who suspect exactly that: every reachable peer is asked
// concurrently and the transform sets are unioned, deduplicated by
// destination fingerprint, so one lagging standby cannot hide a transform the
// primary already acknowledged — and which peer answers first cannot decide
// whether a route exists. The union is ordered by peer preference, so the
// result is deterministic for a given cluster state. Failures leave the
// positive caches untouched; a daemon that answers "unknown" starts the
// negative TTL as any cold fetch does.
//
// Either read's repair yields to a watch event the preferred peer applied
// while the read was in flight: that entry is returned instead.
func (c *Client) Resolve(fp uint64, fresh bool) (*pbio.Format, []*core.Xform, error) {
	if fresh {
		return c.resolveFresh(fp)
	}
	start := c.route(fp)
	var firstErr error
	for i := range c.peers {
		f, xforms, err := c.peers[(start+i)%len(c.peers)].resolve(fp, false)
		if err == nil {
			if i != 0 {
				// The preferred peer missed, so any event-stamped entry it
				// holds now arrived during the failover: install after seqno
				// 0 yields to it.
				f, xforms = c.peers[start].cache.install(0, fp, f, xforms)
			}
			return f, xforms, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, nil, firstErr
}

// resolveFresh is Resolve(fp, true). The peers are asked concurrently: a
// dead peer prices one RPC timeout into the wall-clock, not one per peer, and
// this path can run under a morpher's decision lock with live traffic queued
// behind it.
func (c *Client) resolveFresh(fp uint64) (*pbio.Format, []*core.Xform, error) {
	start := c.route(fp)
	pref := &c.peers[start].cache
	startSeq := pref.cursor(false)
	type answer struct {
		f      *pbio.Format
		xforms []*core.Xform
		err    error
	}
	answers := make([]answer, len(c.peers))
	var wg sync.WaitGroup
	for i := range c.peers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := &answers[i]
			a.f, a.xforms, a.err = c.peers[(start+i)%len(c.peers)].resolve(fp, true)
		}(i)
	}
	wg.Wait()
	var (
		format   *pbio.Format
		union    []*core.Xform
		seen     = make(map[uint64]bool)
		firstErr error
	)
	for _, a := range answers {
		if a.err != nil {
			if firstErr == nil {
				firstErr = a.err
			}
			continue
		}
		if format == nil {
			format = a.f
		}
		for _, x := range a.xforms {
			if to := x.To.Fingerprint(); !seen[to] {
				seen[to] = true
				union = append(union, x)
			}
		}
	}
	if format == nil {
		return nil, nil, firstErr
	}
	format, union = pref.install(startSeq, fp, format, union)
	return format, union, nil
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

// reconverge re-announces every format this process published, with
// retries, until all of them are acknowledged again. A peer fires it when it
// goes down (the write may have died with its acceptor) and when its watch
// attaches to a new daemon instance (a restart or failover: the new
// incarnation may have missed acknowledged-but-unreplicated writes). One
// sweep runs at a time; a trigger during a sweep buys it one more pass.
func (c *Client) reconverge() {
	c.mu.Lock()
	c.resweep = true
	if c.reconverging || c.closed {
		c.mu.Unlock()
		return
	}
	c.reconverging = true
	c.mu.Unlock()

	const maxPasses = 40
	for pass := 1; ; pass++ {
		c.mu.Lock()
		c.resweep = false
		entries := make([]publishedEntry, 0, len(c.published))
		for _, e := range c.published {
			entries = append(entries, e)
		}
		c.mu.Unlock()
		failed := 0
		for _, e := range entries {
			if err := c.Register(e.format, e.xforms...); err != nil {
				failed++
			} else {
				c.reregs.Inc()
			}
		}
		c.mu.Lock()
		if c.closed || (failed == 0 && !c.resweep) || pass == maxPasses {
			c.reconverging = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		if failed > 0 {
			// Jittered linear backoff: failover blackouts are short (a few
			// heartbeats), so stay eager early and ease off.
			base := 50 * time.Millisecond * time.Duration(pass)
			time.Sleep(base + time.Duration(rand.Int63n(int64(base)/2+1)))
		}
	}
}
