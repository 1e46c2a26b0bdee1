package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestNilSafety: every hook must be a no-op (not a panic) on nil
// receivers, because that is exactly what a component built without
// observability holds.
func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	var c *Counter
	c.Add(3)
	if c.Inc() != 0 || c.Load() != 0 {
		t.Error("nil counter must read zero")
	}
	var g *Gauge
	g.Set(7)
	g.Add(-1)
	if g.Load() != 0 {
		t.Error("nil gauge must read zero")
	}
	var h *Histogram
	h.Observe(9)
	h.ObserveNS(-5)
	if h.Count() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil histogram must be empty")
	}
	r.RecordDecision(Decision{})
	if snap := r.Snapshot(); snap.Name != "" || len(snap.Counters) != 0 {
		t.Errorf("nil registry snapshot = %+v, want zero", snap)
	}
	r.Snapshot().WriteText(io.Discard)
}

// TestDisabledHooksAllocationFree: the disabled (nil-instrument) path must
// not allocate — this is the property the tentpole's "lightweight claim
// survives its own instrumentation" rests on.
func TestDisabledHooksAllocationFree(t *testing.T) {
	var c *Counter
	var h *Histogram
	var r *Registry
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		h.Observe(42)
		r.RecordDecision(Decision{})
	})
	if allocs != 0 {
		t.Errorf("disabled hooks allocate %.1f bytes/op, want 0", allocs)
	}
}

// TestEnabledHooksAllocationFree: live counters and histograms must also
// stay allocation-free on the hot path.
func TestEnabledHooksAllocationFree(t *testing.T) {
	r := NewRegistry("alloc")
	c := r.Counter("c")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(1234)
	})
	if allocs != 0 {
		t.Errorf("enabled hooks allocate %.1f allocs/op, want 0", allocs)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry("t")
	c := r.Counter("hits")
	if c.Inc() != 1 || c.Inc() != 2 {
		t.Error("Inc must return the new value")
	}
	c.Add(10)
	if c.Load() != 12 {
		t.Errorf("counter = %d, want 12", c.Load())
	}
	if r.Counter("hits") != c {
		t.Error("Counter must return the same instrument for the same name")
	}
	g := r.Gauge("depth")
	g.Set(5)
	g.Add(-2)
	if g.Load() != 3 {
		t.Errorf("gauge = %d, want 3", g.Load())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 samples uniform over [1, 1000].
	for i := 1; i <= 1000; i++ {
		h.Observe(uint64(i))
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 500500 {
		t.Errorf("sum = %d, want 500500", s.Sum)
	}
	// Power-of-two buckets bound any quantile estimate within 2x of truth.
	check := func(name string, got uint64, want float64) {
		t.Helper()
		if float64(got) < want/2 || float64(got) > want*2 {
			t.Errorf("%s = %d, want within 2x of %.0f", name, got, want)
		}
	}
	check("p50", s.P50, 500)
	check("p90", s.P90, 900)
	check("p99", s.P99, 990)
	if s.Max < 1000 {
		t.Errorf("max = %d, want ≥ 1000", s.Max)
	}
	if s.Mean < 400 || s.Mean > 600 {
		t.Errorf("mean = %f, want ≈ 500.5", s.Mean)
	}
}

func TestHistogramZeroAndEmpty(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.P50 != 0 || s.Count != 0 || s.Max != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
	h.Observe(0)
	s := h.Snapshot()
	if s.Count != 1 || s.P50 != 0 || s.Max != 0 {
		t.Errorf("all-zero snapshot = %+v", s)
	}
}

func TestSnapshotAndText(t *testing.T) {
	r := NewRegistry("unit")
	r.Counter("core.delivered").Add(42)
	r.Gauge("echo.members").Set(3)
	r.Histogram("core.deliver_hot_ns").Observe(1500)
	r.RecordDecision(Decision{Format: "Sample", From: "Sample", To: "Sample", ChainLen: 1, CompileNS: 1000})
	r.RecordDecision(Decision{Format: "Bad", Rejected: true, Reason: "no acceptable match"})

	snap := r.Snapshot()
	if snap.Name != "unit" || snap.Counters["core.delivered"] != 42 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.Histograms["core.deliver_hot_ns"].Count != 1 {
		t.Error("histogram missing from snapshot")
	}
	if len(snap.Decisions) != 2 || snap.Decisions[1].Reason != "no acceptable match" {
		t.Errorf("decisions = %+v", snap.Decisions)
	}
	for i, d := range snap.Decisions {
		if d.Seq != uint64(i+1) || d.Time.IsZero() {
			t.Errorf("decision %d: seq %d time %v, want seq %d and a stamped time", i, d.Seq, d.Time, i+1)
		}
	}

	text := snap.Text()
	for _, want := range []string{
		"core.delivered", "42", "echo.members", "core.deliver_hot_ns",
		"morph decisions", "REJECT (no acceptable match)", "Sample→Sample",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text dump missing %q:\n%s", want, text)
		}
	}

	// The snapshot must round-trip through JSON (the /debug/morphz payload).
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["core.delivered"] != 42 || len(back.Decisions) != 2 {
		t.Errorf("JSON round trip lost data: %+v", back)
	}
}

func TestServeMorphz(t *testing.T) {
	r := NewRegistry("http")
	r.Counter("core.compiled").Add(2)
	srv, err := Serve("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	base := "http://" + srv.Addr().String() + MorphzPath
	get := func(url string) (string, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get(base)
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("default content type = %q", ctype)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("JSON endpoint returned invalid JSON: %v\n%s", err, body)
	}
	if snap.Counters["core.compiled"] != 2 {
		t.Errorf("snapshot over HTTP = %+v", snap.Counters)
	}

	body, ctype = get(base + "?format=text")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("text content type = %q", ctype)
	}
	if !strings.Contains(body, "core.compiled") {
		t.Errorf("text dump missing counter:\n%s", body)
	}
	if time.Duration(snap.UptimeNS) <= 0 {
		t.Error("uptime must be positive")
	}
}
