package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPromExpositionGolden pins the /metrics rendering: the morph_* name
// mapping, counter _total suffixing, label pass-through, histogram
// bucket/sum/count structure and deterministic ordering. Scrape configs key
// on these names, so renames must fail here.
func TestPromExpositionGolden(t *testing.T) {
	r := NewRegistry("golden")
	r.Counter("echo.delivered").Add(7)
	r.Counter(LabeledName("echo.channel.delivered", "channel", "quotes")).Add(5)
	r.Counter(LabeledName("echo.channel.delivered", "channel", "alerts")).Add(2)
	r.Gauge("echo.members").Set(3)
	h := r.Histogram(LabeledName("echo.sink.lag_ns", "channel", "quotes", "sink", "1"))
	h.Observe(3) // bucket le=3
	h.Observe(5) // bucket le=7

	rec := httptest.NewRecorder()
	promHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", MetricsPath, nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()

	for _, want := range []string{
		"# TYPE morph_uptime_seconds gauge\n",
		"# TYPE morph_echo_channel_delivered_total counter\n",
		`morph_echo_channel_delivered_total{channel="alerts"} 2` + "\n",
		`morph_echo_channel_delivered_total{channel="quotes"} 5` + "\n",
		"# TYPE morph_echo_delivered_total counter\nmorph_echo_delivered_total 7\n",
		"# TYPE morph_echo_members gauge\nmorph_echo_members 3\n",
		"# TYPE morph_echo_sink_lag_ns histogram\n",
		`morph_echo_sink_lag_ns_bucket{channel="quotes",sink="1",le="3"} 1` + "\n",
		`morph_echo_sink_lag_ns_bucket{channel="quotes",sink="1",le="7"} 2` + "\n",
		`morph_echo_sink_lag_ns_bucket{channel="quotes",sink="1",le="+Inf"} 2` + "\n",
		`morph_echo_sink_lag_ns_sum{channel="quotes",sink="1"} 8` + "\n",
		`morph_echo_sink_lag_ns_count{channel="quotes",sink="1"} 2` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
	// Labeled series of one metric share a single TYPE header.
	if n := strings.Count(body, "# TYPE morph_echo_channel_delivered_total"); n != 1 {
		t.Errorf("TYPE header count for labeled metric = %d, want 1", n)
	}
	// Alphabetical series order within a metric.
	if strings.Index(body, `channel="alerts"`) > strings.Index(body, `channel="quotes"`) {
		t.Error("labeled series not sorted by label block")
	}
	if strings.Contains(body, "# EOF") {
		t.Error("plain text exposition must not end with OpenMetrics EOF")
	}
}

// TestPromOpenMetricsExemplar: a histogram whose top bucket captured an
// exemplar renders it on the matching bucket line in OpenMetrics mode only,
// and the exposition terminates with # EOF.
func TestPromOpenMetricsExemplar(t *testing.T) {
	r := NewRegistry("om")
	h := r.Histogram("core.splice_ns")
	var tid [16]byte
	copy(tid[:], "0123456789abcdef")
	h.Observe(10)
	h.ObserveExemplar(5000, tid)

	rec := httptest.NewRecorder()
	promHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", MetricsPath+"?format=openmetrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("OpenMetrics exposition must end with # EOF:\n%s", body)
	}
	wantTid := "30313233343536373839616263646566" // hex of the ASCII bytes
	if !strings.Contains(body, `# {trace_id="`+wantTid+`"} 5000`) {
		t.Errorf("exemplar missing or wrong:\n%s", body)
	}
	// The exemplar must ride a bucket line that covers its value (le >= 5000).
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, "# {trace_id=") {
			if !strings.Contains(line, `le="8191"`) {
				t.Errorf("exemplar attached to wrong bucket: %s", line)
			}
		}
	}

	// Plain-text mode must not leak exemplars (invalid in that dialect).
	rec = httptest.NewRecorder()
	promHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", MetricsPath, nil))
	if strings.Contains(rec.Body.String(), "trace_id") {
		t.Error("exemplar rendered in plain text exposition")
	}

	// Accept-header negotiation selects OpenMetrics too.
	req := httptest.NewRequest("GET", MetricsPath, nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	rec = httptest.NewRecorder()
	promHandler(r).ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "# EOF") {
		t.Error("Accept negotiation did not select OpenMetrics")
	}
}

// TestPromNilRegistry: a nil registry serves a valid, nearly empty
// exposition so the mount never needs guarding.
func TestPromNilRegistry(t *testing.T) {
	rec := httptest.NewRecorder()
	promHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", MetricsPath, nil))
	if !strings.Contains(rec.Body.String(), "morph_uptime_seconds") {
		t.Errorf("nil registry exposition: %q", rec.Body.String())
	}
}

// TestLabeledName covers construction, escaping, and the splitter.
func TestLabeledName(t *testing.T) {
	if got := LabeledName("a.b"); got != "a.b" {
		t.Errorf("no labels: %q", got)
	}
	got := LabeledName("a.b", "k", `v"\`+"\n", "k2", "v2")
	want := `a.b{k="v\"\\\n",k2="v2"}`
	if got != want {
		t.Errorf("LabeledName = %q, want %q", got, want)
	}
	base, labels := SplitLabels(got)
	if base != "a.b" || labels != want[len("a.b"):] {
		t.Errorf("SplitLabels = %q, %q", base, labels)
	}
	if base, labels := SplitLabels("plain"); base != "plain" || labels != "" {
		t.Errorf("SplitLabels(plain) = %q, %q", base, labels)
	}
}

// TestRegistryRemove: removed series disappear from snapshots while
// already-fetched handles stay safe to use.
func TestRegistryRemove(t *testing.T) {
	r := NewRegistry("rm")
	c := r.Counter("a")
	r.Gauge("b").Set(1)
	r.Histogram("c").Observe(1)
	r.Remove("a", "b", "c", "never-existed")
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("instruments survived Remove: %+v", snap)
	}
	c.Inc() // must not panic; handle is detached but alive
}
