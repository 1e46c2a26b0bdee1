package registry

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pbio"
)

// cache is the client's resolution memory: a positive LRU of resolved
// entries, a negative TTL map of fingerprints the daemon answered "unknown"
// for, and a singleflight table so concurrent misses on one fingerprint cost
// one round-trip. It knows nothing about connections: a miss calls the fetch
// function it is handed, and the watch stream feeds it through put.
//
// watchSeq orders the two writers. Every entry remembers the watch-event
// seqno that installed it (gen), and a fetch notes the seqno current when it
// left, so a round-trip overtaken by an invalidation event mid-flight can
// never overwrite the event's fresher entry with its older snapshot.
type cache struct {
	cap    int
	negTTL time.Duration

	hits    *obs.Counter // registry.hits: resolutions served from the LRU
	negHits *obs.Counter // registry.negative_hits: unknown-fingerprint cache hits

	mu       sync.Mutex
	lru      map[uint64]*cacheEntry
	head     *cacheEntry // most recent
	tail     *cacheEntry // least recent
	neg      map[uint64]time.Time
	flight   map[uint64]*flightCall
	watchSeq uint64 // last event seqno applied
}

// cacheEntry is one resolved format in the intrusive LRU list. gen is the
// watch-event seqno that installed (or last refreshed) the entry — 0 when it
// came from a fetch, a Register acknowledgment, or read repair.
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

// fetchFunc is one daemon round-trip for the fingerprint being resolved.
type fetchFunc func() (*pbio.Format, []*core.Xform, error)

func (k *cache) init(capacity int, negTTL time.Duration, hits, negHits *obs.Counter) {
	k.cap, k.negTTL = capacity, negTTL
	k.hits, k.negHits = hits, negHits
	k.lru = make(map[uint64]*cacheEntry)
	k.neg = make(map[uint64]time.Time)
	k.flight = make(map[uint64]*flightCall)
}

// resolve answers fp from the LRU (allocation-free), from the negative cache
// (ErrUnknownFingerprint), or by a fetch shared with every concurrent caller
// missing on the same fingerprint.
func (k *cache) resolve(fp uint64, fetch fetchFunc) (*pbio.Format, []*core.Xform, error) {
	k.mu.Lock()
	if e := k.lru[fp]; e != nil {
		k.moveFrontLocked(e)
		// Copy the fields while still holding mu: a watch event refreshes
		// entries in place, so dereferencing e after the unlock races it.
		f, xf := e.format, e.xforms
		k.mu.Unlock()
		k.hits.Inc()
		return f, xf, nil
	}
	if exp, ok := k.neg[fp]; ok {
		if time.Now().Before(exp) {
			k.mu.Unlock()
			k.negHits.Inc()
			return nil, nil, fmt.Errorf("%w: %016x (cached)", ErrUnknownFingerprint, fp)
		}
		delete(k.neg, fp)
	}
	if fc := k.flight[fp]; fc != nil {
		k.mu.Unlock()
		<-fc.done
		return fc.format, fc.xforms, fc.err
	}
	fc := &flightCall{done: make(chan struct{})}
	k.flight[fp] = fc
	// Capture the watch seqno before the fetch leaves: an invalidation event
	// that lands on this fingerprint while the round-trip is in flight stamps
	// the entry with a higher gen, and the fetch result — a snapshot from
	// before the event — must then be discarded, not inserted.
	startSeq := k.watchSeq
	k.mu.Unlock()

	fc.format, fc.xforms, fc.err = fetch()

	k.mu.Lock()
	delete(k.flight, fp)
	if e := k.lru[fp]; e != nil && e.gen > startSeq {
		// A watch event overtook the in-flight fetch: its entry is the
		// fresher truth. Serve it to this caller and every flight follower —
		// even when the daemon answered "unknown", which only means the
		// registration raced the fetch — and drop the negative entry that
		// stale unknown may have re-poisoned the cache with.
		delete(k.neg, fp)
		fc.format, fc.xforms, fc.err = e.format, e.xforms, nil
	} else if fc.err == nil {
		k.insertLocked(fp, fc.format, fc.xforms)
	}
	k.mu.Unlock()
	close(fc.done)
	return fc.format, fc.xforms, fc.err
}

// refresh is the cache-bypassing read: it always fetches, then installs the
// answer unless a watch event overtook the round-trip (see install). A failed
// fetch leaves the positive cache untouched.
func (k *cache) refresh(fp uint64, fetch fetchFunc) (*pbio.Format, []*core.Xform, error) {
	startSeq := k.cursor(false)
	f, xforms, err := fetch()
	if err != nil {
		return nil, nil, err
	}
	f, xforms = k.install(startSeq, fp, f, xforms)
	return f, xforms, nil
}

// install puts an answer obtained after watch seqno startSeq over whatever
// the LRU and negative cache held — unless a watch event installed something
// fresher meanwhile, in which case that entry stays and is returned instead.
// It returns what the cache now serves for fp.
func (k *cache) install(startSeq, fp uint64, f *pbio.Format, xforms []*core.Xform) (*pbio.Format, []*core.Xform) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if e := k.lru[fp]; e != nil && e.gen > startSeq {
		return e.format, e.xforms
	}
	delete(k.neg, fp)
	k.insertLocked(fp, f, xforms)
	return f, xforms
}

// put installs an entry learned without a fetch of its own, purging any
// negative entry: a client that had resolved the fingerprint to "unknown"
// must not keep serving the stale miss for the rest of the negative TTL. seq
// is the watch-event seqno that carried the entry — it stamps the entry and
// advances the replay cursor — or 0 for an acknowledged Register, which
// leaves both alone.
func (k *cache) put(seq, fp uint64, f *pbio.Format, xforms []*core.Xform) {
	k.mu.Lock()
	delete(k.neg, fp)
	k.insertLocked(fp, f, xforms)
	if e := k.lru[fp]; e != nil && seq > e.gen {
		e.gen = seq
	}
	if seq > k.watchSeq {
		k.watchSeq = seq
	}
	k.mu.Unlock()
}

// unknown starts the negative TTL for a fingerprint the daemon does not hold.
func (k *cache) unknown(fp uint64) {
	k.mu.Lock()
	k.neg[fp] = time.Now().Add(k.negTTL)
	k.mu.Unlock()
}

// holds reports whether fp is in the positive cache.
func (k *cache) holds(fp uint64) bool {
	k.mu.Lock()
	_, ok := k.lru[fp]
	k.mu.Unlock()
	return ok
}

// cursor returns the seqno a watch subscription should resume after. reset
// (the daemon instance changed) rewinds it to zero first: seqnos do not carry
// across incarnations, so the daemon must resync the full table.
func (k *cache) cursor(reset bool) uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	if reset {
		k.watchSeq = 0
	}
	return k.watchSeq
}

// insertLocked adds a resolved entry at the LRU front (refreshing it in place
// when present), evicting the tail past capacity.
func (k *cache) insertLocked(fp uint64, f *pbio.Format, xforms []*core.Xform) {
	if e := k.lru[fp]; e != nil {
		e.format, e.xforms = f, xforms
		k.moveFrontLocked(e)
		return
	}
	e := &cacheEntry{fp: fp, format: f, xforms: xforms}
	k.lru[fp] = e
	k.pushFrontLocked(e)
	if len(k.lru) > k.cap && k.tail != nil {
		evict := k.tail
		k.unlinkLocked(evict)
		delete(k.lru, evict.fp)
	}
}

func (k *cache) pushFrontLocked(e *cacheEntry) {
	e.prev, e.next = nil, k.head
	if k.head != nil {
		k.head.prev = e
	}
	k.head = e
	if k.tail == nil {
		k.tail = e
	}
}

func (k *cache) unlinkLocked(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		k.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		k.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (k *cache) moveFrontLocked(e *cacheEntry) {
	if k.head == e {
		return
	}
	k.unlinkLocked(e)
	k.pushFrontLocked(e)
}
