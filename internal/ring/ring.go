// Package ring is the lock-free bounded ring the diagnostics planes keep
// their records in: completed spans (internal/trace), captured frames
// (internal/tap) and morph decisions (internal/obs). The most recent cap
// records are retained, older ones are overwritten. Spans and frames are
// written from delivery hot paths, so writers must never block each other: a writer claims a slot with one atomic add and publishes
// its record with one atomic pointer swap. Readers only load pointers, so a
// concurrent snapshot sees each slot either before or after a publish, never
// a torn record — records are immutable once published.
package ring

import (
	"sort"
	"sync/atomic"
)

// Ring retains the last len(slots) records of type T. T carries its own
// 1-based sequence number; seq locates that field so the ring can stamp a
// record before publishing it and order snapshots by it.
type Ring[T any] struct {
	slots   []atomic.Pointer[T]
	seq     func(*T) *uint64
	next    atomic.Uint64 // records ever put; slot index = (seq-1) % len
	dropped atomic.Uint64 // retained records overwritten by Put
}

// New returns a ring of the given capacity, which must be at least 1.
func New[T any](capacity int, seq func(*T) *uint64) *Ring[T] {
	return &Ring[T]{slots: make([]atomic.Pointer[T], capacity), seq: seq}
}

// Put stamps p with the next sequence number and publishes it. p must not be
// written afterwards. Overwrites are not silent: Put reports whether a
// retained record was displaced and counts it (Dropped), so a ring too small
// for its traffic is visible instead of just quietly forgetting records.
func (r *Ring[T]) Put(p *T) (displaced bool) {
	n := r.next.Add(1)
	*r.seq(p) = n
	if r.slots[(n-1)%uint64(len(r.slots))].Swap(p) != nil {
		r.dropped.Add(1)
		return true
	}
	return false
}

// Keep retains a record another ring already stamped and published, under
// its existing sequence number — secondary retention, like the tracer's
// slow-span tail. What it displaces is not counted: every record kept this
// way had its residency in the ring that stamped it.
func (r *Ring[T]) Keep(p *T) {
	n := r.next.Add(1)
	r.slots[(n-1)%uint64(len(r.slots))].Store(p)
}

// Total returns how many records were ever put or kept.
func (r *Ring[T]) Total() uint64 { return r.next.Load() }

// Dropped returns how many retained records Put has overwritten.
func (r *Ring[T]) Dropped() uint64 { return r.dropped.Load() }

// Snapshot returns copies of the retained records, oldest first by sequence
// number (slot order is not arrival order once the ring wraps). Under
// concurrent writes the result is a consistent sample, not an atomic cut: a
// slot may still hold the record a concurrent writer is about to replace.
func (r *Ring[T]) Snapshot() []T {
	out := make([]T, 0, len(r.slots))
	for i := range r.slots {
		if p := r.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return *r.seq(&out[i]) < *r.seq(&out[j]) })
	return out
}
