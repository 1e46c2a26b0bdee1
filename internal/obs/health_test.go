package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

type httpResp struct {
	code int
	body string
}

func httpGet(url string) (httpResp, error) {
	resp, err := http.Get(url)
	if err != nil {
		return httpResp{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return httpResp{}, err
	}
	return httpResp{code: resp.StatusCode, body: string(b)}, nil
}

// TestHealthz: liveness is unconditional — it answers 200 even on a nil
// Health, because reaching the handler at all is the proof of life.
func TestHealthz(t *testing.T) {
	for _, h := range []*Health{nil, NewHealth()} {
		rec := httptest.NewRecorder()
		h.healthzHandler().ServeHTTP(rec, httptest.NewRequest("GET", HealthzPath, nil))
		if rec.Code != 200 {
			t.Fatalf("healthz status = %d", rec.Code)
		}
		var doc struct {
			Status   string `json:"status"`
			UptimeNS int64  `json:"uptime_ns"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("healthz body not JSON: %v", err)
		}
		if doc.Status != "ok" {
			t.Errorf("status = %q", doc.Status)
		}
	}
}

// TestReadyz: readiness flips with probe outcomes and reports the
// per-probe breakdown sorted by name.
func TestReadyz(t *testing.T) {
	h := NewHealth()
	rec := httptest.NewRecorder()
	h.readyzHandler().ServeHTTP(rec, httptest.NewRequest("GET", ReadyzPath, nil))
	if rec.Code != 200 {
		t.Fatalf("no-probe readyz status = %d, want 200", rec.Code)
	}

	failing := errors.New("spool: disk gone")
	var ok bool
	h.Register("spool", func() error {
		if ok {
			return nil
		}
		return failing
	})
	h.Register("listener", func() error { return nil })

	rec = httptest.NewRecorder()
	h.readyzHandler().ServeHTTP(rec, httptest.NewRequest("GET", ReadyzPath, nil))
	if rec.Code != 503 {
		t.Fatalf("failing readyz status = %d, want 503", rec.Code)
	}
	var snap ReadySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Ready {
		t.Error("ready=true with failing probe")
	}
	if len(snap.Probes) != 2 || snap.Probes[0].Name != "listener" || snap.Probes[1].Name != "spool" {
		t.Fatalf("probes = %+v, want [listener spool]", snap.Probes)
	}
	if snap.Probes[1].OK || snap.Probes[1].Error != failing.Error() {
		t.Errorf("spool probe = %+v", snap.Probes[1])
	}

	ok = true
	rec = httptest.NewRecorder()
	h.readyzHandler().ServeHTTP(rec, httptest.NewRequest("GET", ReadyzPath, nil))
	if rec.Code != 200 {
		t.Errorf("recovered readyz status = %d, want 200", rec.Code)
	}
}

// TestDebugIndex: the index lists mounted endpoints sorted, 404s unmounted
// subtree paths, and degrades to plain text on request.
func TestDebugIndex(t *testing.T) {
	idx := indexHandler([]string{MorphzPath, MetricsPath, HealthzPath})

	rec := httptest.NewRecorder()
	idx.ServeHTTP(rec, httptest.NewRequest("GET", DebugIndexPath, nil))
	if !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/html") {
		t.Errorf("Content-Type = %q", rec.Header().Get("Content-Type"))
	}
	body := rec.Body.String()
	for _, p := range []string{MorphzPath, MetricsPath, HealthzPath} {
		if !strings.Contains(body, `<a href="`+p+`">`) {
			t.Errorf("index missing link to %s:\n%s", p, body)
		}
	}

	rec = httptest.NewRecorder()
	idx.ServeHTTP(rec, httptest.NewRequest("GET", DebugIndexPath+"?format=text", nil))
	text := rec.Body.String()
	if !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain") {
		t.Errorf("text Content-Type = %q", rec.Header().Get("Content-Type"))
	}
	if strings.Index(text, MorphzPath) > strings.Index(text, HealthzPath) {
		t.Errorf("index not sorted:\n%s", text)
	}

	rec = httptest.NewRecorder()
	idx.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/nonexistent", nil))
	if rec.Code != 404 {
		t.Errorf("unmounted subtree path status = %d, want 404", rec.Code)
	}
}

// TestServeMountsTelemetryPlane: every Serve listener carries morphz,
// metrics, the health pair, pprof and the index, plus the caller's pages,
// with the index listing all of them.
func TestServeMountsTelemetryPlane(t *testing.T) {
	r := NewRegistry("serve")
	r.Counter("core.delivered").Inc()
	const pagePath = "/debug/pagez"
	page := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) { _, _ = io.WriteString(w, "page") })
	srv, err := Serve("127.0.0.1:0", r, NewHealth(), Mount{Path: pagePath, Handler: page})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	base := "http://" + srv.Addr().String()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := httpGet(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.code, resp.body
	}
	if code, body := get(MetricsPath); code != 200 || !strings.Contains(body, "morph_core_delivered_total 1") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, _ := get(HealthzPath); code != 200 {
		t.Errorf("/healthz status = %d", code)
	}
	if code, _ := get(ReadyzPath); code != 200 {
		t.Errorf("/readyz status = %d", code)
	}
	if code, body := get(pprofPath); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("%s = %d, want the pprof index", pprofPath, code)
	}
	if code, body := get(pprofPath + "cmdline"); code != 200 || body == "" {
		t.Errorf("%scmdline = %d %q", pprofPath, code, body)
	}
	if code, body := get(pagePath); code != 200 || body != "page" {
		t.Errorf("%s = %d %q, want the mounted page", pagePath, code, body)
	}
	code, body := get(DebugIndexPath)
	if code != 200 {
		t.Fatalf("index status = %d", code)
	}
	for _, p := range []string{MorphzPath, MetricsPath, HealthzPath, ReadyzPath, pprofPath, pagePath} {
		if !strings.Contains(body, p) {
			t.Errorf("index missing %s:\n%s", p, body)
		}
	}
}
