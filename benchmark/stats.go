package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-quantile (0 < p ≤ 1) of an ascending sample by
// nearest rank: the smallest value with at least p of the sample at or
// below it. An empty sample yields 0.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank])
}

// median returns the middle value of xs (mean of the two middle values for
// an even count) without modifying xs. An empty slice yields 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// span is one timed call on the staged path. parent indexes the enclosing
// span in the same message's span list (-1 for the root); all spans of one
// message share its trace id (the message's seq).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes adds, per span name, each span's duration minus the time its
// direct children cover. Children of one parent never overlap on the staged
// path (it runs on one goroutine), so covered time is their plain sum.
func selfTimes(spans []span, into map[string]int64) {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		into[s.Name] += s.End - s.Start - covered[i]
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// retainedHeap forces two collections (the second empties sync.Pool victim
// caches) and returns the live heap.
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// benchReps is how many equal batches bench splits its budget into; the
// reported figure is the median batch.
const benchReps = 7

// bench times fn, which must perform n operations, for about budget and
// returns the median batch's ns per operation and heap allocations per
// operation. A short calibration batch sizes n so one batch lasts
// budget/benchReps.
func bench(budget time.Duration, fn func(n int)) (nsPerOp, allocsPerOp float64) {
	n := 1
	var took time.Duration
	for {
		t0 := time.Now()
		fn(n)
		took = time.Since(t0)
		if took >= budget/(8*benchReps) || n >= 1<<24 {
			break
		}
		n *= 4
	}
	per := float64(took) / float64(n)
	n = int(float64(budget/benchReps) / per)
	if n < 1 {
		n = 1
	}
	ns := make([]float64, 0, benchReps)
	al := make([]float64, 0, benchReps)
	for i := 0; i < benchReps; i++ {
		m0 := mallocs()
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		m1 := mallocs()
		ns = append(ns, float64(d)/float64(n))
		al = append(al, float64(m1-m0)/float64(n))
	}
	return median(ns), median(al)
}

// benchEach is bench for operations that need untimed preparation before
// every call (a cold cache, a fresh format): prep runs outside the timer,
// op inside it. It returns the median ns per op over the calls that fit in
// budget (at least benchReps).
func benchEach(budget time.Duration, prep func(i int), op func(i int)) float64 {
	var ns []float64
	start := time.Now()
	for i := 0; i < benchReps || time.Since(start) < budget; i++ {
		prep(i)
		t0 := time.Now()
		op(i)
		ns = append(ns, float64(time.Since(t0)))
	}
	return median(ns)
}
