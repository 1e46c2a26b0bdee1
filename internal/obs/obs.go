// Package obs is the reproduction's observability layer: atomic counters,
// gauges and fixed-bucket latency histograms, plus a bounded ring of
// morph-decision traces. It exists so the paper's central claim — that
// morphing is *lightweight*, near-native delivery cost with a one-time
// compile on the cold path — can be checked from the system's own
// instruments instead of external profilers.
//
// Everything is stdlib-only and designed for hot paths:
//
//   - Every method is nil-safe: a nil *Registry, *Counter, *Gauge or
//     *Histogram is a valid no-op instrument, so a component
//     built without observability pays exactly one predictable branch per
//     hook and allocates nothing.
//   - Instrument handles are fetched once, at component construction time
//     (Registry.Counter and friends take a lock); the hot path then touches
//     only atomics.
//
// A process typically owns one Registry shared by every layer (Morpher,
// wire connections, the ECho event domain, ecode programs), with metric names
// prefixed by component: "core.delivered", "wire.bytes_recv",
// "echo.fanout_ns", "ecode.run_steps". Snapshot captures everything at
// once; Serve exposes it over HTTP as /debug/morphz (JSON or text) and
// /metrics (Prometheus exposition) on the process's one debug listener.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ring"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a valid no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc increments the counter and returns the new value (0 on a nil
// receiver). Returning the value lets callers derive sampling decisions
// from a counter they already maintain, at no extra atomic cost.
func (c *Counter) Inc() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Add(1)
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (membership counts, queue depths).
// The zero value is ready to use; a nil *Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of instruments plus one decision trace
// ring. All methods are safe for concurrent use, and all are no-ops on a
// nil receiver, so components accept a *Registry option and never check it.
type Registry struct {
	name  string
	start time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram

	decisions *ring.Ring[Decision]
}

// DefaultTraceCap is the decision-trace ring capacity of NewRegistry.
const DefaultTraceCap = 128

// NewRegistry returns an empty registry with a DefaultTraceCap-deep
// decision trace ring.
func NewRegistry(name string) *Registry {
	return &Registry{
		name:      name,
		start:     time.Now(),
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
		decisions: ring.New(DefaultTraceCap, func(d *Decision) *uint64 { return &d.Seq }),
	}
}

// Counter returns (creating on first use) the named counter, or nil on a
// nil registry. Fetch once at construction time, not on the hot path.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge, or nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback gauge: fn is evaluated at snapshot time and
// its value appears under name alongside regular gauges (taking precedence
// over a regular gauge of the same name). It suits values another subsystem
// already maintains as an atomic — fanout.LiveFrames, say — where mirroring
// every update into a Gauge would double the hot-path cost for a number the
// scrape plane only needs on demand. fn must be safe for concurrent use and
// must not block. A nil registry or nil fn is a no-op; registering again
// replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gaugeFns == nil {
		r.gaugeFns = make(map[string]func() int64)
	}
	r.gaugeFns[name] = fn
}

// Histogram returns (creating on first use) the named histogram, or nil on
// a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Remove deletes the named instruments (counters, gauges and histograms
// alike) from the registry, so per-entity series — one subscriber's lag
// histogram, say — do not outlive the entity and accumulate forever in a
// long-running process. Handles already fetched keep working; they just no
// longer appear in snapshots. Unknown names are ignored.
func (r *Registry) Remove(names ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range names {
		delete(r.counters, n)
		delete(r.gauges, n)
		delete(r.gaugeFns, n)
		delete(r.hists, n)
	}
}

// RecordDecision appends a morph-decision trace entry, stamping Seq (1-based,
// monotonic) and Time if unset; the ring keeps the last DefaultTraceCap.
// Entries arrive only on the morph cold path (once per incoming format).
func (r *Registry) RecordDecision(d Decision) {
	if r == nil {
		return
	}
	// Copied after the nil check so only a live registry allocates the entry.
	e := d
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	r.decisions.Put(&e)
}

// Snapshot is a point-in-time capture of a whole registry, JSON-ready for
// /debug/morphz and the `morphbench -obs` dump.
type Snapshot struct {
	Name       string                       `json:"name"`
	TakenAt    time.Time                    `json:"taken_at"`
	UptimeNS   int64                        `json:"uptime_ns"`
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Decisions  []Decision                   `json:"decisions"`
}

// Snapshot captures every instrument. Each individual read is atomic;
// instruments are read in registration-independent (sorted-name) order, so
// two snapshots of a quiescent registry are identical. A nil registry
// yields a zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	now := time.Now()
	s := Snapshot{
		Name:       r.name,
		TakenAt:    now,
		UptimeNS:   now.Sub(r.start).Nanoseconds(),
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	gaugeFns := make(map[string]func() int64, len(r.gaugeFns))
	for k, v := range r.gaugeFns {
		gaugeFns[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for k, v := range counters {
		s.Counters[k] = v.Load()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Load()
	}
	// Callback gauges are evaluated outside the registry lock (fn may take
	// its own locks) and win over a same-named regular gauge.
	for k, fn := range gaugeFns {
		s.Gauges[k] = fn()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	s.Decisions = r.decisions.Snapshot()
	return s
}

// sortedKeys returns m's keys in sorted order (for deterministic text
// dumps).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
