package echo

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/trace"
)

// startObsServer is startServer plus a shared registry.
func startObsServer(t *testing.T) (*Server, *obs.Registry, string) {
	t.Helper()
	reg := obs.NewRegistry("echo-e2e")
	srv := NewServer(WithObs(reg))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		_ = srv.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("server did not shut down")
		}
	})
	return srv, reg, ln.Addr().String()
}

// serveDebug puts the event domain's debug listener together the way
// cmd/echodemo does and returns its base URL.
func serveDebug(t *testing.T, srv *Server, reg *obs.Registry, tr *trace.Tracer) string {
	t.Helper()
	dbg, err := obs.Serve("127.0.0.1:0", reg, srv.Health(),
		obs.Mount{Path: trace.TracezPath, Handler: trace.Handler(tr)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dbg.Close() })
	return "http://" + dbg.Addr().String()
}

// TestMorphzEndToEnd is the acceptance scenario: an event domain with
// observability enabled, a v1-only sink, a publisher sending evolved-format
// events. The /debug/morphz endpoint must show the compile event, cache
// hits from repeated deliveries, and a nonzero fan-out latency histogram —
// in both JSON and text renderings.
func TestMorphzEndToEnd(t *testing.T) {
	srv, reg, addr := startObsServer(t)

	quoteV1 := pbio.MustFormat("Quote", []pbio.Field{
		{Name: "symbol", Kind: pbio.String},
		{Name: "cents", Kind: pbio.Integer},
	})
	quoteV2 := pbio.MustFormat("Quote", []pbio.Field{
		{Name: "symbol", Kind: pbio.String},
		{Name: "dollars", Kind: pbio.Float},
		{Name: "volume", Kind: pbio.Integer},
	})

	// The sink shares the server's registry, so its morphing decisions
	// (core.*) land in the same snapshot as the server's echo.*/wire.*.
	sink, err := Open(addr, "q", Options{Sink: true, Thresholds: &core.Thresholds{}, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	received := make(chan int64, 64)
	if err := sink.Handle(quoteV1, func(r *pbio.Record) error {
		v, _ := r.Get("cents")
		received <- v.Int64()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	go func() { _ = sink.Run() }()

	pub, err := Open(addr, "q", Options{Source: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	pub.Declare(quoteV2, &core.Xform{
		From: quoteV2,
		To:   quoteV1,
		Code: `old.symbol = new.symbol; old.cents = new.dollars * 100.0;`,
	})

	const events = 20
	for i := 0; i < events; i++ {
		ev := pbio.NewRecord(quoteV2).
			MustSet("symbol", pbio.Str("XYZ")).
			MustSet("dollars", pbio.Float64(float64(i))).
			MustSet("volume", pbio.Int(int64(i)))
		if err := pub.Publish(ev); err != nil {
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
	// The fan-out pass records its latency after releasing its own
	// reference, so the last pass's sample can trail that too.
	waitNoLiveFrames(t)
	for deadline := time.Now().Add(5 * time.Second); reg.Histogram("echo.fanout_ns").Count() < events; {
		if time.Now().After(deadline) {
			break // the assertion below reports the count
		}
		time.Sleep(time.Millisecond)
	}

	base := serveDebug(t, srv, reg, nil) + obs.MorphzPath

	// JSON rendering.
	resp, err := http.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("endpoint body is not a Snapshot: %v\n%s", err, body)
	}
	if snap.Counters["core.compiled"] < 1 {
		t.Errorf("core.compiled = %d, want >= 1", snap.Counters["core.compiled"])
	}
	if snap.Counters["core.cache_hits"] < events-1 {
		t.Errorf("core.cache_hits = %d, want >= %d", snap.Counters["core.cache_hits"], events-1)
	}
	if h := snap.Histograms["echo.fanout_ns"]; h.Count < events || h.Sum == 0 {
		t.Errorf("echo.fanout_ns = %+v, want >= %d nonzero samples", h, events)
	}
	if snap.Counters["echo.delivered"] < events {
		t.Errorf("echo.delivered = %d, want >= %d", snap.Counters["echo.delivered"], events)
	}
	chDelivered := obs.LabeledName("echo.channel.delivered", "channel", "q")
	if snap.Counters[chDelivered] < events {
		t.Errorf("%s = %d, want >= %d", chDelivered, snap.Counters[chDelivered], events)
	}
	// Per-sink delivery accounting: the sink joined first, so it holds
	// member ID 1. Lag must have one sample per delivery; the in-flight
	// gauges must be back at zero between fan-outs.
	sinkLag := obs.LabeledName("echo.sink.lag_ns", "channel", "q", "sink", "1")
	if h := snap.Histograms[sinkLag]; h.Count < events || h.Sum == 0 {
		t.Errorf("%s = %+v, want >= %d nonzero samples", sinkLag, h, events)
	}
	for _, g := range []string{
		obs.LabeledName("echo.sink.queue_depth", "channel", "q", "sink", "1"),
		obs.LabeledName("echo.sink.bytes_pending", "channel", "q", "sink", "1"),
	} {
		if v, ok := snap.Gauges[g]; !ok || v != 0 {
			t.Errorf("%s = %d (present=%v), want 0 between fan-outs", g, v, ok)
		}
	}
	chLag := obs.LabeledName("echo.channel.lag_ns", "channel", "q")
	if h := snap.Histograms[chLag]; h.Count < events {
		t.Errorf("%s count = %d, want >= %d", chLag, h.Count, events)
	}
	if snap.Gauges["echo.members"] != 2 {
		t.Errorf("echo.members = %d, want 2", snap.Gauges["echo.members"])
	}
	if snap.Counters["wire.data_frames_recv"] == 0 {
		t.Error("wire.data_frames_recv = 0; member connections are not sharing the registry")
	}
	if len(snap.Decisions) == 0 {
		t.Error("no morph decision traces in snapshot")
	}

	// Text rendering.
	resp, err = http.Get(base + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("text Content-Type = %q", ct)
	}
	for _, want := range []string{"core.compiled", "echo.fanout_ns", "decisions"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("text rendering missing %q:\n%s", want, text)
		}
	}
}

// TestMembersGaugeDrops: the membership gauge must go back down when a
// member leaves, and the fanout/read-loop remove race must not double-count.
func TestMembersGaugeDrops(t *testing.T) {
	_, reg, addr := startObsServer(t)

	sub, err := Open(addr, "g", Options{Sink: true})
	if err != nil {
		t.Fatal(err)
	}
	waitGauge := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if got := reg.Gauge("echo.members").Load(); got == want {
				return
			} else if time.Now().After(deadline) {
				t.Fatalf("echo.members = %d, want %d", got, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitGauge(1)
	// While the sink is joined its per-sink series exist...
	lagName := obs.LabeledName("echo.sink.lag_ns", "channel", "g", "sink", "1")
	if _, ok := reg.Snapshot().Histograms[lagName]; !ok {
		t.Errorf("joined sink has no %s series", lagName)
	}
	_ = sub.Close()
	waitGauge(0)
	// ...and they are garbage-collected when it leaves, so per-sink series
	// do not accumulate forever under subscriber churn.
	if _, ok := reg.Snapshot().Histograms[lagName]; ok {
		t.Errorf("%s series survived the sink leaving", lagName)
	}
}
