package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// How a run's --seconds are spent. End-to-end runs alternate ping-pong and
// capacity phases in rounds, so that a noisy stretch of the shared box lands
// in some rounds of each phase; every gated figure is the median round.
const (
	setupReps = 15 // set-ups per run; setup_s is their median
	rounds    = 10

	e2ePingShare = 0.36
	e2eCapShare  = 0.45

	layPingShare   = 0.10
	layCapShare    = 0.12
	layBurstShare  = 0.20
	layMicroShare  = 0.010 // per measurement; about 24 of them
	layStagedShare = 0.20
)

// outcome is one run's result in the shape the driver reads.
type outcome struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
	notes     []string
}

func (o *outcome) add(t tally) {
	o.Attempted += t.attempted
	o.Failed += t.failed
	if t.detail != "" {
		o.notes = append(o.notes, t.detail)
	}
}

func (o *outcome) fail(format string, a ...any) {
	o.Failed++
	o.notes = append(o.notes, fmt.Sprintf(format, a...))
}

func share(seconds, s float64) time.Duration {
	return time.Duration(seconds * s * float64(time.Second))
}

// warmUp runs the workload's fixed count of warm-up messages closed-loop,
// untimed, which puts the deep-checked messages behind, then asserts the
// intended lanes.
func warmUp(r *rig, o *outcome) {
	if _, err := r.closedLoop(window, creditBatch, 30*time.Second, r.wl.warmMsgs); err != nil {
		return
	}
	if err := r.checkLanes(); err != nil {
		o.fail("%v", err)
	}
	r.want = nil
}

// settleLeaks closes out a workload: nothing may be left behind.
func settleLeaks(goroutinesBefore int, o *outcome) (liveFrames int64, leaked int) {
	liveFrames, leaked = leakCheck(goroutinesBefore)
	if liveFrames != 0 {
		o.fail("fanout.LiveFrames() = %d after close", liveFrames)
	}
	if leaked != 0 {
		o.fail("%d goroutines leaked", leaked)
	}
	return liveFrames, leaked
}

// chunk is how long a measured phase runs between two bursts of the
// calibration kernel.
const chunk = 100 * time.Millisecond

// meter runs phases of the live system in chunks with the calibration
// kernel in between, so every figure comes with the box speed of its own
// stretch of time.
type meter struct {
	kernel *calibrator
	err    error
}

// speed is how slow the box is against the reference: the kernel's time
// per iteration ÷ calRefNS, by the wall clock and by the process's CPU
// clock. Above 1 is a slow box.
type speed struct{ wall, cpu float64 }

func (a *speed) add(b speed) { a.wall += b.wall; a.cpu += b.cpu }

func (a speed) over(n int) speed { return speed{a.wall / float64(n), a.cpu / float64(n)} }

// burst times the kernel once.
func (m *meter) burst() speed {
	wall, cpu, err := m.kernel.measure()
	if err != nil {
		m.err = err
		return speed{1, 1}
	}
	return speed{float64(wall) / calRefNS, float64(cpu) / calRefNS}
}

// phaseTotals is what one phase did, and how fast the box was meanwhile.
type phaseTotals struct {
	msgs      int
	wall, cpu time.Duration
	box       speed
}

// closedLoop runs r.closedLoop for total, chunk by chunk.
func (m *meter) closedLoop(r *rig, win, batch int, total time.Duration) (phaseTotals, error) {
	var t phaseTotals
	chunks := int(total / chunk)
	if chunks < 1 {
		chunks = 1
	}
	box := m.burst()
	for i := 0; i < chunks; i++ {
		c0, t0 := cpuTime(), time.Now()
		n, err := r.closedLoop(win, batch, total/time.Duration(chunks), 0)
		t.wall += time.Since(t0)
		t.cpu += cpuTime() - c0
		t.msgs += n
		if err != nil {
			return t, err
		}
		box.add(m.burst())
	}
	t.box = box.over(chunks + 1)
	return t, nil
}

// runE2E measures what a user of the system sees, with no tracing and no
// observability attached.
func runE2E(wl *workload, seed int64, seconds float64, sc *scratch) (outcome, error) {
	o := outcome{Metrics: metrics{}}
	goroutines := runtime.NumGoroutine()
	kernel, err := newCalibrator()
	if err != nil {
		return o, err
	}
	defer kernel.close()
	m := &meter{kernel: kernel}

	var setups []float64
	setupBox := m.burst()
	build := func(last bool) (*rig, error) {
		src, err := wl.build(seed)
		if err != nil {
			return nil, err
		}
		var want *reference
		if last {
			if want, err = precomputeReference(src); err != nil {
				return nil, err
			}
		}
		r, d, err := newRig(wl, src, sc, want, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		setupBox.add(m.burst())
		return r, nil
	}
	for i := 1; i < setupReps; i++ {
		r, err := build(false)
		if err != nil {
			return o, err
		}
		o.add(r.finish())
	}
	heapBase := retainedHeap()
	r, err := build(true)
	if err != nil {
		return o, err
	}
	setupBox = setupBox.over(setupReps + 1)
	warmUp(r, &o)
	heap := retainedHeap()

	// One entry per round, unscaled, with the box speed of its two phases.
	type round struct {
		p50, p90, rate, cpu float64
		ping, load          speed
	}
	var rs []round
	for k := 0; k < rounds && r.aborted == nil; k++ {
		r.timing.Store(true)
		ping, err := m.closedLoop(r, 1, 1, share(seconds, e2ePingShare/rounds))
		r.timing.Store(false)
		if err != nil {
			break
		}
		lat := r.takeLatencies()
		p50, p90 := percentile(lat, 0.50)/1e3, percentile(lat, 0.90)/1e3

		load, err := m.closedLoop(r, window, creditBatch, share(seconds, e2eCapShare/rounds))
		if err != nil || load.msgs == 0 {
			break
		}
		deliveries := float64(load.msgs * nSinks)
		rs = append(rs, round{p50, p90, deliveries / load.wall.Seconds(), float64(load.cpu.Microseconds()) / deliveries, ping.box, load.box})
	}
	o.add(r.finish())
	settleLeaks(goroutines, &o)
	if m.err != nil {
		return o, fmt.Errorf("calibration kernel: %w", m.err)
	}

	// The gated figure is the median round, each round scaled by the box
	// speed of its own stretch: throughput by the wall clock, CPU and the
	// (mostly idle) ping-pong and set-up paths by the CPU clock.
	mid := func(f func(round) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	o.Metrics.set("setup_s", median(setups)/setupBox.cpu, "s")
	o.Metrics.set("delivered_per_s", mid(func(r round) float64 { return r.rate * r.load.wall }), "1/s")
	o.Metrics.set("cpu_us_per_delivery", mid(func(r round) float64 { return r.cpu / r.load.cpu }), "us")
	o.Metrics.set("latency_p50_us", mid(func(r round) float64 { return r.p50 / r.ping.cpu }), "us")
	o.Metrics.set("latency_p90_us", mid(func(r round) float64 { return r.p90 / r.ping.cpu }), "us")
	o.Metrics.set("retained_heap_mb", (float64(heap)-float64(heapBase))/(1<<20), "MB")
	fmt.Fprintf(os.Stderr, "morphperf: %s unscaled: setup_s=%.5f delivered_per_s=%.0f cpu_us_per_delivery=%.3f latency_p50_us=%.2f latency_p90_us=%.2f box_wall=%.3f box_cpu=%.3f box_cpu_pingpong=%.3f box_cpu_setup=%.3f\n",
		wl.name, median(setups), mid(func(r round) float64 { return r.rate }), mid(func(r round) float64 { return r.cpu }),
		mid(func(r round) float64 { return r.p50 }), mid(func(r round) float64 { return r.p90 }),
		mid(func(r round) float64 { return r.load.wall }), mid(func(r round) float64 { return r.load.cpu }),
		mid(func(r round) float64 { return r.ping.cpu }), setupBox.cpu)
	o.Correct = o.Failed == 0
	return o, nil
}

// counters is what the layer run reads off the live system around its
// capacity phase.
type counters struct {
	morph            core.Stats // four sinks summed
	lanes            map[string]uint64
	pub              wire.Stats
	formatFrames     uint64
	flushes, flushed uint64
	dropped, rpcs    uint64
}

func (r *rig) counters() counters {
	c := counters{pub: r.pub.WireStats()}
	c.morph, c.lanes = r.morphStats()
	c.formatFrames = c.pub.FormatFramesSent
	for _, s := range r.sinks {
		c.formatFrames += s.sub.WireStats().FormatFramesRecv
	}
	flush := r.obsReg.Histogram(obs.LabeledName("echo.channel.flush_frames", "channel", channelID)).Snapshot()
	c.flushes, c.flushed = flush.Count, flush.Sum
	c.dropped = r.obsReg.Counter(obs.LabeledName("echo.channel.drops", "channel", channelID)).Load()
	c.rpcs = r.obsReg.Counter("formatd.gets").Load() + r.obsReg.Counter("formatd.puts").Load()
	return c
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// runLayers is the traced run: the live system with the broker's counters
// attached, then each layer's public calls timed alone, then the staged
// replay with spans. None of its numbers is gated.
func runLayers(wl *workload, seed int64, seconds float64, sc *scratch, tracePath string) (outcome, error) {
	o := outcome{Metrics: metrics{}}
	m := o.Metrics
	goroutines := runtime.NumGoroutine()
	src, err := wl.build(seed)
	if err != nil {
		return o, err
	}
	want, err := precomputeReference(src)
	if err != nil {
		return o, err
	}
	r, _, err := newRig(wl, src, sc, want, obs.NewRegistry("bench"))
	if err != nil {
		return o, err
	}
	warmUp(r, &o)

	r.timing.Store(true)
	_, _ = r.closedLoop(1, 1, share(seconds, layPingShare), 0)
	r.timing.Store(false)
	lat := r.takeLatencies()
	pingP50 := percentile(lat, 0.50) / 1e3
	m.set("echo.pingpong_p50_us", pingP50, "us")
	m.set("echo.pingpong_p99_us", percentile(lat, 0.99)/1e3, "us")
	m.set("echo.pingpong_p999_us", percentile(lat, 0.999)/1e3, "us")

	before := r.counters()
	r.pubNS = make([]float64, 0, 1<<16)
	c0, m0, t0 := cpuTime(), mallocs(), time.Now()
	n, _ := r.closedLoop(window, creditBatch, share(seconds, layCapShare), 0)
	dt, dc, dm := time.Since(t0), cpuTime()-c0, mallocs()-m0
	after := r.counters()
	m.set("echo.allocs_per_delivery", ratio(dm, uint64(n*nSinks)), "count")
	m.set("echo.publish_call_ns", median(r.pubNS), "ns")
	r.pubNS = nil
	m.set("echo.cpu_util", dc.Seconds()/(dt.Seconds()*float64(runtime.NumCPU())), "ratio")
	for _, lane := range []string{"identity", "splice", "record", "xform"} {
		m.set("core.lane_"+lane, float64(after.lanes[lane]-before.lanes[lane]), "count")
	}
	a, b := after.morph, before.morph
	hits := a.SpliceHits - b.SpliceHits
	m.set("core.splice_hit_rate", ratio(hits, hits+a.SpliceMisses-b.SpliceMisses), "ratio")
	m.set("core.cache_hit_rate", ratio(a.CacheHits-b.CacheHits, a.Delivered-b.Delivered), "ratio")
	m.set("core.compiled", float64(a.Compiled-b.Compiled), "count")
	m.set("core.rejected", float64(a.Rejected), "count")
	m.set("wire.bytes_per_msg", ratio(after.pub.BytesSent-before.pub.BytesSent, uint64(n)), "B")
	m.set("wire.format_frames", float64(after.formatFrames-before.formatFrames), "count")
	m.set("fanout.frames_per_flush", ratio(after.flushed-before.flushed, after.flushes-before.flushes), "count")
	m.set("registry.rpcs", float64(after.rpcs-before.rpcs), "count")

	r.timing.Store(true)
	lag, _ := r.burst(wl.burstRate, share(seconds, layBurstShare))
	r.timing.Store(false)
	lat = r.takeLatencies()
	m.set("echo.burst_p50_us", percentile(lat, 0.50)/1e3, "us")
	m.set("echo.burst_p99_us", percentile(lat, 0.99)/1e3, "us")
	m.set("echo.gen_lag_p99_us", lag/1e3, "us")
	m.set("echo.open_us", median(r.openNS)/1e3, "us")
	m.set("fanout.dropped", float64(r.counters().dropped), "count")

	o.add(r.finish())
	liveFrames, leaked := settleLeaks(goroutines, &o)
	m.set("fanout.live_frames_at_drain", float64(liveFrames), "count")
	m.set("process.leaked_goroutines", float64(leaked), "count")

	if err := measureLayers(src, share(seconds, layMicroShare), m); err != nil {
		return o, err
	}

	replaySrc, err := wl.build(seed)
	if err != nil {
		return o, err
	}
	st, err := runStaged(replaySrc, share(seconds, layStagedShare))
	if err != nil {
		return o, err
	}
	o.Attempted += st.messages * nSinks
	o.Failed += st.failed
	for _, name := range stageNames {
		m.set("trace.self_us."+name, st.selfUS[name], "us")
	}
	m.set("trace.staged_path_us", st.pathUS, "us")
	m.set("trace.core_share", st.selfUS[spanDeliver]/st.pathUS, "ratio")
	m.set("trace.coverage", st.pathUS/pingP50, "ratio")
	m.set("trace.overhead_ratio", st.overhead, "ratio")
	m.set("echo.unattributed_us", pingP50-st.pathUS, "us")
	if err := writeTrace(tracePath, wl.name, seed, st); err != nil {
		return o, err
	}
	if _, leaked := leakCheck(goroutines); leaked != 0 {
		o.fail("%d goroutines leaked by the layer measurements", leaked)
	}
	o.Correct = o.Failed == 0
	return o, nil
}
