package echo

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/trace"
)

// TestTelemetryPlaneEndToEnd is the unified-telemetry acceptance scenario:
// one event domain serving /metrics, /healthz, /readyz, /debug/ and
// /debug/tracez off a single debug listener. It drives real deliveries
// through a sink, then checks (1) the Prometheus exposition carries the
// echo series including per-sink labels, (2) a lag exemplar in the
// OpenMetrics exposition resolves to a retrievable trace in /debug/tracez,
// (3) the health pair answers, and (4) the /debug/ index lists everything.
func TestTelemetryPlaneEndToEnd(t *testing.T) {
	tr := trace.New(trace.Config{Capacity: 256})
	reg := obs.NewRegistry("telemetry-e2e")
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
	received := make(chan int64, 64)
	sink, err := Open(addr, "m", Options{Sink: true, Tracer: tr})
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

	pub, err := Open(addr, "m", Options{Source: true, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	const events = 10
	for i := 0; i < events; i++ {
		if err := pub.Publish(pbio.NewRecord(tick).MustSet("seq", pbio.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < events; i++ {
		select {
		case <-received:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d events delivered", i, events)
		}
	}
	// A handler can run before the broker's writer is back from the flush;
	// its per-delivery accounting is done once the last frame is released.
	waitNoLiveFrames(t)

	base := serveDebug(t, srv, reg, tr)
	get := func(path string) (*http.Response, string) {
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
		return resp, string(body)
	}

	// (1) Prometheus exposition with per-sink labeled series.
	resp, metrics := get(obs.MetricsPath)
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"# TYPE morph_echo_delivered_total counter",
		`morph_echo_channel_delivered_total{channel="m"} ` + "10",
		`morph_echo_sink_lag_ns_count{channel="m",sink="1"} ` + "10",
		`morph_echo_sink_queue_depth{channel="m",sink="1"} 0`,
		"# TYPE morph_echo_fanout_ns histogram",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// (2) Exemplar correlation: the OpenMetrics exposition must carry a
	// trace_id exemplar on a hot-path histogram, and that trace must be
	// retrievable from /debug/tracez.
	_, om := get(obs.MetricsPath + "?format=openmetrics")
	m := regexp.MustCompile(`# \{trace_id="([0-9a-f]{32})"\}`).FindStringSubmatch(om)
	if m == nil {
		t.Fatalf("no exemplar in OpenMetrics exposition:\n%s", om)
	}
	exemplarTrace := m[1]
	_, tracez := get(trace.TracezPath)
	if !strings.Contains(tracez, exemplarTrace) {
		t.Errorf("exemplar trace %s not retrievable from tracez", exemplarTrace)
	}
	// tracez reports drop accounting.
	var tz struct {
		SpansDropped *uint64 `json:"spans_dropped"`
	}
	if err := json.Unmarshal([]byte(tracez), &tz); err != nil {
		t.Fatal(err)
	}
	if tz.SpansDropped == nil {
		t.Error("tracez JSON missing spans_dropped")
	}

	// (3) Health pair: liveness unconditional, readiness with probe detail.
	resp, body := get(obs.HealthzPath)
	if resp.StatusCode != 200 || !strings.Contains(body, `"ok"`) {
		t.Errorf("/healthz = %d %q", resp.StatusCode, body)
	}
	resp, body = get(obs.ReadyzPath)
	if resp.StatusCode != 200 {
		t.Errorf("/readyz = %d %q", resp.StatusCode, body)
	}
	var ready obs.ReadySnapshot
	if err := json.Unmarshal([]byte(body), &ready); err != nil {
		t.Fatal(err)
	}
	probes := map[string]bool{}
	for _, p := range ready.Probes {
		probes[p.Name] = p.OK
	}
	if !ready.Ready || !probes["listener"] || !probes["fanout"] {
		t.Errorf("/readyz snapshot = %+v, want ready with listener+fanout probes", ready)
	}

	// (4) The /debug/ index lists the whole surface.
	_, index := get(obs.DebugIndexPath)
	for _, p := range []string{obs.MorphzPath, obs.MetricsPath, obs.HealthzPath,
		obs.ReadyzPath, trace.TracezPath} {
		if !strings.Contains(index, p) {
			t.Errorf("/debug/ index missing %s:\n%s", p, index)
		}
	}
}
