package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pbio"
)

// NewClusterClient returns a client for a formatd replica set. It is a
// *Client like any other — it satisfies the same three integration points
// (wire.FormatResolver, the Holds suppressor predicate, TransformsFor) — but
// instead of one connection it carries one child client per peer and routes
// by fingerprint shard: ShardOf(fp, shards) picks the shard, shard mod
// len(addrs) the preferred replica. Reads try the preferred replica first
// and fail over across the rest with the children's own jittered backoff;
// writes land on any reachable replica (standbys forward them to the
// primary). The per-child LRU hit path is byte-for-byte the single-daemon
// one, so a warm resolve stays allocation-free.
//
// The parent watches for daemon instance changes and down transitions on its
// children and reconverges: every format this process registered is
// re-announced, so a promoted standby that missed the primary's last
// acknowledged writes still ends up holding them (the server damps
// byte-identical re-registrations, so an already-replicated entry costs one
// no-op RPC).
//
// shards <= 1 means one shard: every fingerprint prefers replica 0 (the
// usual primary) and the standbys are pure failover targets.
func NewClusterClient(addrs []string, shards int, opts ...ClientOption) *Client {
	if len(addrs) == 0 {
		panic("registry: NewClusterClient needs at least one address")
	}
	if shards < 1 {
		shards = 1
	}
	parent := &Client{
		shards:    shards,
		published: make(map[uint64]publishedEntry),
	}
	for _, addr := range addrs {
		ch := NewClient(addr, opts...)
		ch.onDown = func() { parent.clusterReconverge() }
		ch.onWatchUp = func(instChanged bool) {
			if instChanged {
				parent.clusterReconverge()
			}
		}
		parent.children = append(parent.children, ch)
	}
	return parent
}

// route maps a fingerprint to the index of its preferred replica.
func (c *Client) route(fp uint64) int {
	return ShardOf(fp, c.shards) % len(c.children)
}

// clusterRegister publishes through the first reachable replica, preferred
// first. A standby forwards the write to the primary before acknowledging,
// so success from any replica means the primary holds the entry. The entry
// is remembered at the parent level too: reconvergence after a failover
// re-announces it wherever routing then points.
func (c *Client) clusterRegister(f *pbio.Format, xforms []*core.Xform) error {
	fp := f.Fingerprint()
	start := c.route(fp)
	var firstErr, retryable error
	for i := range c.children {
		ch := c.children[(start+i)%len(c.children)]
		err := ch.Register(f, xforms...)
		if err == nil {
			c.mu.Lock()
			c.published[fp] = publishedEntry{format: f, xforms: xforms}
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
	// dominates transport errors from other replicas — typically the dead
	// primary that caused the election. The caller can usefully wait and
	// retry, because a write path is about to exist; reporting the transport
	// error instead would read as "cluster unreachable" when it is not.
	if retryable != nil {
		return retryable
	}
	return firstErr
}

// clusterResolve resolves through the preferred replica, failing over across
// the rest on transport errors — and on "unknown fingerprint" too: a standby
// that has not yet applied the registration honestly does not know the
// entry, so one replica's unknown is lag until every reachable replica
// agrees. An answer from a non-preferred replica is read-repaired into the
// preferred child's LRU so the next resolve is a local, allocation-free hit.
func (c *Client) clusterResolve(fp uint64) (*pbio.Format, []*core.Xform, error) {
	start := c.route(fp)
	var firstErr error
	unknowns := 0
	for i := range c.children {
		ch := c.children[(start+i)%len(c.children)]
		f, xforms, err := ch.Resolve(fp, false)
		if err == nil {
			if i != 0 {
				c.children[start].cache.put(0, fp, f, xforms)
			}
			return f, xforms, nil
		}
		if errors.Is(err, ErrUnknownFingerprint) {
			unknowns++
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if unknowns == len(c.children) {
		return nil, nil, fmt.Errorf("%w: %016x (all replicas)", ErrUnknownFingerprint, fp)
	}
	return nil, nil, firstErr
}

// clusterResolveFresh is the cluster arm of Resolve(fp, true): every
// reachable replica is asked directly (no caches) and the transform sets are
// unioned, deduplicated by destination fingerprint. The union — rather than
// first-answer-wins like clusterResolve — is the point: after a fingerprint
// collision the richer transform set may sit only on the primary while a
// standby still serves the pre-collision entry, and which replica answers
// first must not decide whether a route exists. The replicas are asked
// concurrently: a dead peer prices one RPC timeout into the wall-clock, not
// one per peer, and this path can run under a morpher's decision lock with
// live traffic queued behind it. The union is read-repaired into the
// preferred child so the next warm resolve sees it too. Ordering is by
// replica preference (not answer arrival), so the result is deterministic
// for a given cluster state.
func (c *Client) clusterResolveFresh(fp uint64) (*pbio.Format, []*core.Xform, error) {
	start := c.route(fp)
	type answer struct {
		f      *pbio.Format
		xforms []*core.Xform
		err    error
	}
	answers := make([]answer, len(c.children))
	var wg sync.WaitGroup
	for i := range c.children {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch := c.children[(start+i)%len(c.children)]
			a := &answers[i]
			a.f, a.xforms, a.err = ch.Resolve(fp, true)
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
	c.children[start].cache.put(0, fp, format, union)
	return format, union, nil
}

// clusterReconverge re-announces every format this process published, with
// retries, until all of them are acknowledged again. Fired when a child
// discovers a daemon instance change (failover: the promoted standby may
// have missed acknowledged-but-unreplicated writes) or goes down (the write
// may have died with its acceptor). Sweeps are coalesced: one runs at a
// time, and a trigger during a sweep is safe to drop because the sweep
// re-snapshots nothing — the next Register failure or instance change
// triggers again.
func (c *Client) clusterReconverge() {
	c.mu.Lock()
	if c.reconverging || c.closed {
		c.mu.Unlock()
		return
	}
	c.reconverging = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.reconverging = false
		c.mu.Unlock()
	}()

	const maxAttempts = 40
	for attempt := 0; attempt < maxAttempts; attempt++ {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		entries := c.publishedLocked()
		c.mu.Unlock()
		if len(entries) == 0 {
			return
		}
		failed := 0
		for _, e := range entries {
			if err := c.clusterRegister(e.format, e.xforms); err != nil {
				failed++
			}
		}
		if failed == 0 {
			return
		}
		// Jittered linear backoff: failover blackouts are short (a few
		// heartbeats), so stay eager early and ease off.
		base := 50 * time.Millisecond * time.Duration(attempt+1)
		time.Sleep(base + time.Duration(rand.Int63n(int64(base)/2+1)))
	}
}

// ClusterChildren exposes the per-peer child clients (index-aligned with the
// address list given to NewClusterClient); nil on a single-daemon client.
// Debug surfaces and benchmarks use it to report per-replica state.
func (c *Client) ClusterChildren() []*Client { return c.children }
