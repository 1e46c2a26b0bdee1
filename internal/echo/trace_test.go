package echo

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/trace"
)

// TestTracezEndToEnd is the tracing acceptance scenario: a publisher, the
// event domain, and two sink subscribers share one tracer (everything runs
// in-process), a single publish crosses all of them, and /debug/tracez must
// show one trace tree spanning the whole journey — client-side encode and
// frame write, the server's frame read and fan-out, and each sink's frame
// read, morph decision, lane and handler delivery.
func TestTracezEndToEnd(t *testing.T) {
	tr := trace.New(trace.Config{Capacity: 256})
	reg := obs.NewRegistry("trace-e2e")
	srv := NewServer(WithObs(reg), WithTracer(tr))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("server did not shut down")
		}
	}()
	addr := ln.Addr().String()

	tick := pbio.MustFormat("Tick", []pbio.Field{
		{Name: "seq", Kind: pbio.Integer, Size: 8},
	})

	received := make(chan int64, 4)
	for i := 0; i < 2; i++ {
		sink, err := Open(addr, "t", Options{Sink: true, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		defer sink.Close()
		if err := sink.Handle(tick, func(r *pbio.Record) error {
			v, _ := r.Get("seq")
			received <- v.Int64()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		go func() { _ = sink.Run() }()
	}

	pub, err := Open(addr, "t", Options{Source: true, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	if err := pub.Publish(pbio.NewRecord(tick).MustSet("seq", pbio.Int(7))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case v := <-received:
			if v != 7 {
				t.Fatalf("sink received %d, want 7", v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 2 sinks received the event", i)
		}
	}

	base := serveDebug(t, srv, reg, tr)

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// JSON rendering: one trace, publisher-rooted, covering every hop. The
	// handlers can run before the broker's fanout span ends (it times the
	// whole enqueue pass) and before their own deliver spans end, so poll
	// until the tree is whole instead of reading it once.
	wantStages := []string{"publish", "encode", "frame_write", "frame_read", "fanout", "morph_decide", "deliver"}
	var (
		tree   *trace.TraceJSON
		stages map[string]int
	)
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, body := get(trace.TracezPath)
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("tracez Content-Type = %q, want application/json", ct)
		}
		var snap trace.TracezSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("tracez body is not a TracezSnapshot: %v\n%s", err, body)
		}
		tree, stages = nil, make(map[string]int)
		for i := range snap.Traces {
			if _, ok := snap.Traces[i].StageNS["publish"]; ok {
				tree = &snap.Traces[i]
				break
			}
		}
		if tree != nil {
			for _, sp := range tree.Spans {
				if sp.TraceID != tree.TraceID {
					t.Fatalf("span %s/%s escaped trace %s", sp.Stage, sp.SpanID, tree.TraceID)
				}
				stages[sp.Stage]++
			}
		}
		whole := tree != nil && stages["deliver"] >= 2 && stages["frame_read"] >= 3
		for _, want := range wantStages {
			whole = whole && stages[want] > 0
		}
		if whole || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tree == nil {
		t.Fatal("no publisher-rooted trace in tracez")
	}
	if len(stages) < 6 {
		t.Errorf("trace covers %d distinct stages, want >= 6: %v", len(stages), stages)
	}
	for _, want := range wantStages {
		if stages[want] == 0 {
			t.Errorf("stage %q missing from the trace: %v", want, stages)
		}
	}
	// Both sinks contribute: two handler deliveries, and the fan-out plus
	// two sink-side reads mean at least three frame reads in the tree.
	if stages["deliver"] < 2 {
		t.Errorf("deliver recorded %d times, want 2 (one per sink): %v", stages["deliver"], stages)
	}
	if stages["frame_read"] < 3 {
		t.Errorf("frame_read recorded %d times, want >= 3 (server + 2 sinks): %v", stages["frame_read"], stages)
	}

	// Text rendering.
	resp, body := get(trace.TracezPath + "?format=text")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("text Content-Type = %q", ct)
	}
	for _, want := range []string{"trace " + tree.TraceID, "publish", "fanout", "stages:"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("text rendering missing %q:\n%s", want, body)
		}
	}

	// JSONL export: one parseable span object per line.
	resp, body = get(trace.TracezPath + "?format=jsonl")
	if ct := resp.Header.Get("Content-Type"); ct != "application/jsonl" {
		t.Errorf("jsonl Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 6 {
		t.Fatalf("jsonl export has %d spans, want >= 6", len(lines))
	}
	for _, line := range lines {
		var sp trace.SpanJSON
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("bad jsonl line %q: %v", line, err)
		}
	}
}

// TestDebugPprofMounted: the event domain's debug listener, put together as
// cmd/echodemo does, serves profiles — whoever can reach /debug/tapz can
// reach /debug/pprof/.
func TestDebugPprofMounted(t *testing.T) {
	srv := NewServer()
	base := serveDebug(t, srv, nil, nil)
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index not served by the debug listener: status %d", resp.StatusCode)
	}
}
