package obs

import (
	"encoding/json"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
)

// TestMorphzJSONSchema pins the morphz JSON rendering to its golden key set:
// dashboards and scrapers key on these names, so adding a field is fine but
// renaming or dropping one must fail this test.
func TestMorphzJSONSchema(t *testing.T) {
	r := NewRegistry("schema")
	r.Counter("core.compiled").Inc()
	r.Gauge("echo.members").Add(2)
	r.Histogram("echo.fanout_ns").ObserveNS(1500)
	r.Histogram("echo.fanout_ns").ObserveExemplar(9000, [16]byte{1, 2, 3})

	rec := httptest.NewRecorder()
	morphzHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", MorphzPath, nil))

	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &top); err != nil {
		t.Fatalf("morphz body is not a JSON object: %v\n%s", err, rec.Body.String())
	}
	got := make([]string, 0, len(top))
	for k := range top {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"counters", "decisions", "gauges", "histograms", "name", "taken_at", "uptime_ns"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("morphz JSON keys = %v, want %v", got, want)
	}

	var hists map[string]map[string]json.RawMessage
	if err := json.Unmarshal(top["histograms"], &hists); err != nil {
		t.Fatal(err)
	}
	hgot := make([]string, 0)
	for k := range hists["echo.fanout_ns"] {
		hgot = append(hgot, k)
	}
	sort.Strings(hgot)
	hwant := []string{"buckets", "count", "exemplar", "max", "mean", "p50", "p90", "p99", "sum"}
	if strings.Join(hgot, ",") != strings.Join(hwant, ",") {
		t.Errorf("histogram JSON keys = %v, want %v", hgot, hwant)
	}
}

// TestMorphzTextRendering: ?format=text and Accept: text/plain both select
// the plain-text dump.
func TestMorphzTextRendering(t *testing.T) {
	r := NewRegistry("schema")
	r.Counter("core.compiled").Inc()

	rec := httptest.NewRecorder()
	morphzHandler(r).ServeHTTP(rec,
		httptest.NewRequest("GET", MorphzPath+"?format=text", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	if !strings.Contains(rec.Body.String(), "counter core.compiled") {
		t.Errorf("text rendering missing the counter:\n%s", rec.Body.String())
	}

	// Accept-header negotiation selects the same rendering.
	req := httptest.NewRequest("GET", MorphzPath, nil)
	req.Header.Set("Accept", "text/plain")
	rec = httptest.NewRecorder()
	morphzHandler(r).ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Accept-negotiated Content-Type = %q, want text/plain", ct)
	}
}
