package obs

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestRuntimeSamplerNil(t *testing.T) {
	var s *RuntimeSampler
	s.Sample() // must not panic
	if NewRuntimeSampler(nil) != nil {
		t.Fatal("nil registry should yield a nil sampler")
	}
}

func TestRuntimeSamplerPopulatesGauges(t *testing.T) {
	r := NewRegistry("rt")
	s := NewRuntimeSampler(r)
	runtime.GC() // guarantee at least one completed cycle to account
	s.Sample()
	snap := r.Snapshot()
	if snap.Gauges["go.goroutines"] < 1 {
		t.Fatalf("go.goroutines = %d", snap.Gauges["go.goroutines"])
	}
	if snap.Gauges["go.heap_alloc_bytes"] <= 0 || snap.Gauges["go.sys_bytes"] <= 0 {
		t.Fatalf("heap/sys gauges unset: %v", snap.Gauges)
	}
	if snap.Counters["go.gc_cycles"] == 0 {
		t.Fatal("go.gc_cycles = 0 after an explicit GC")
	}
	pauses := snap.Histograms["go.gc_pause_ns"].Count

	// A second sample with no GC in between must not re-observe old pauses.
	s.Sample()
	if again := r.Snapshot().Histograms["go.gc_pause_ns"].Count; again != pauses {
		t.Fatalf("pause histogram grew %d -> %d without a GC cycle", pauses, again)
	}
	// And new cycles land incrementally.
	runtime.GC()
	s.Sample()
	if after := r.Snapshot().Histograms["go.gc_pause_ns"].Count; after <= pauses {
		t.Fatalf("pause histogram did not grow after GC: %d -> %d", pauses, after)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry("gf")
	v := int64(41)
	r.GaugeFunc("live.frames", func() int64 { return v })
	v = 42
	if got := r.Snapshot().Gauges["live.frames"]; got != 42 {
		t.Fatalf("callback gauge = %d, want the at-snapshot value 42", got)
	}
	// Callback wins over a same-named regular gauge.
	r.Gauge("live.frames").Set(7)
	if got := r.Snapshot().Gauges["live.frames"]; got != 42 {
		t.Fatalf("callback gauge overridden: %d", got)
	}
	r.Remove("live.frames")
	if _, ok := r.Snapshot().Gauges["live.frames"]; ok {
		t.Fatal("Remove left the callback gauge behind")
	}
	// Nil-safety.
	var nilReg *Registry
	nilReg.GaugeFunc("x", func() int64 { return 1 })
	r.GaugeFunc("y", nil)
}

// TestServeSamplesRuntimeOnScrape: the Serve wrapper refreshes go.* before
// every /metrics and /debug/morphz response, so scrapes always carry current
// runtime pressure (morph_go_* series in the exposition).
func TestServeSamplesRuntimeOnScrape(t *testing.T) {
	r := NewRegistry("scrape")
	srv, err := Serve("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	metrics, err := httpGet(fmt.Sprintf("http://%s%s", srv.Addr(), MetricsPath))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics.body, "morph_go_goroutines") {
		t.Fatalf("/metrics missing morph_go_goroutines:\n%.400s", metrics.body)
	}
	if !strings.Contains(metrics.body, "morph_go_heap_alloc_bytes") {
		t.Fatalf("/metrics missing morph_go_heap_alloc_bytes")
	}
	morphz, err := httpGet(fmt.Sprintf("http://%s%s?format=text", srv.Addr(), MorphzPath))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(morphz.body, "go.goroutines") {
		t.Fatalf("/debug/morphz missing go.goroutines:\n%.400s", morphz.body)
	}
}
