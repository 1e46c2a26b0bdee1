package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// buildTrace records a small but realistic tree: publish → (encode,
// frame_write), plus an orphan span from "another process" sharing the
// trace ID.
func buildTrace(tr *Tracer) Context {
	root := tr.StartTrace(StagePublish)
	enc := tr.StartSpan(root.Context(), StageEncode)
	enc.N = 61
	enc.End()
	fw := tr.StartSpan(root.Context(), StageFrameWrite)
	fw.FP = 0x1234
	fw.End()
	root.End()
	return root.Context()
}

func TestTracezAssembly(t *testing.T) {
	tr := New(Config{Capacity: 64})
	first := buildTrace(tr)
	second := buildTrace(tr)

	snap := tr.Tracez()
	if snap.TotalSpans != 6 {
		t.Fatalf("TotalSpans = %d, want 6", snap.TotalSpans)
	}
	if len(snap.Traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(snap.Traces))
	}
	// Most recent first.
	if snap.Traces[0].TraceID != second.Trace.String() || snap.Traces[1].TraceID != first.Trace.String() {
		t.Errorf("trace order: got %s,%s", snap.Traces[0].TraceID, snap.Traces[1].TraceID)
	}
	got := snap.Traces[0]
	if len(got.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(got.Spans))
	}
	for _, stage := range []string{"publish", "encode", "frame_write"} {
		if _, ok := got.StageNS[stage]; !ok {
			t.Errorf("StageNS missing %q: %v", stage, got.StageNS)
		}
	}
	if got.DurNS <= 0 {
		t.Errorf("trace duration %d, want > 0", got.DurNS)
	}
}

func TestTracezHandlerRenderings(t *testing.T) {
	tr := New(Config{Capacity: 64})
	buildTrace(tr)
	buildTrace(tr)
	srv := httptest.NewServer(Handler(tr))
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	// JSON (default).
	body, ctype := get(TracezPath)
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("default Content-Type = %q", ctype)
	}
	var snap TracezSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("JSON body invalid: %v\n%s", err, body)
	}
	if len(snap.Traces) != 2 || snap.TotalSpans != 6 {
		t.Errorf("snapshot over HTTP = %d traces / %d spans", len(snap.Traces), snap.TotalSpans)
	}
	if !strings.Contains(body, `"spans_dropped"`) {
		t.Error("tracez JSON missing spans_dropped")
	}

	// limit caps the trace list.
	body, _ = get(TracezPath + "?limit=1")
	var limited TracezSnapshot
	if err := json.Unmarshal([]byte(body), &limited); err != nil {
		t.Fatal(err)
	}
	if len(limited.Traces) != 1 {
		t.Errorf("limit=1 returned %d traces", len(limited.Traces))
	}

	// Text tree.
	body, ctype = get(TracezPath + "?format=text")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("text Content-Type = %q", ctype)
	}
	for _, want := range []string{"trace ", "publish", "  encode", "stages:"} {
		if !strings.Contains(body, want) {
			t.Errorf("text rendering missing %q:\n%s", want, body)
		}
	}

	// JSONL export: one valid span object per line.
	body, ctype = get(TracezPath + "?format=jsonl")
	if !strings.HasPrefix(ctype, "application/jsonl") {
		t.Errorf("jsonl Content-Type = %q", ctype)
	}
	lines := 0
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		var sp SpanJSON
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("jsonl line %d invalid: %v\n%s", lines, err, sc.Text())
		}
		if sp.TraceID == "" || sp.Stage == "" {
			t.Errorf("jsonl line %d incomplete: %+v", lines, sp)
		}
		lines++
	}
	if lines != 6 {
		t.Errorf("jsonl lines = %d, want 6", lines)
	}
}

func TestTracezTextOrphanSpans(t *testing.T) {
	// A span whose parent is not retained (remote process, ring eviction)
	// must render as a root, not vanish.
	tr := New(Config{Capacity: 8})
	remote := Context{Sampled: true}
	remote.Trace[0] = 1
	remote.Span[0] = 2
	s := tr.StartSpan(remote, StageMorphDecide)
	s.End()
	text := tr.Tracez().Text()
	if !strings.Contains(text, "morph_decide") {
		t.Errorf("orphan span missing from text:\n%s", text)
	}
}
