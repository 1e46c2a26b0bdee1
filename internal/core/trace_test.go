package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/trace"
)

// stagesByName collects the tracer's retained spans keyed by stage name,
// preserving multiplicity.
func stagesByName(tr *trace.Tracer) map[string][]trace.SpanRecord {
	out := make(map[string][]trace.SpanRecord)
	for _, r := range tr.Snapshot() {
		out[r.Stage.String()] = append(out[r.Stage.String()], r)
	}
	return out
}

// TestTraceSpansSpliceLane: a sampled identity delivery on the byte lane
// must record decision, lane and handler spans, properly nested.
func TestTraceSpansSpliceLane(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{{Name: "x", Kind: pbio.Integer, Size: 8}})
	tr := trace.New(trace.Config{Capacity: 64})
	m := NewMorpher(DefaultThresholds, WithTracer(tr))
	if err := m.RegisterFormatEncoded(f, func([]byte, *pbio.Format) error { return nil }); err != nil {
		t.Fatal(err)
	}
	data := pbio.EncodeRecord(pbio.NewRecord(f).MustSet("x", pbio.Int(1)))

	root := tr.StartTrace(trace.StageFrameRead)
	if err := m.DeliverEncodedCtx(data, f, root.Context()); err != nil {
		t.Fatal(err)
	}
	root.End()

	if st := m.Stats(); st.SpliceHits != 1 {
		t.Fatalf("delivery did not take the splice lane: %+v", st)
	}
	spans := stagesByName(tr)
	for _, want := range []string{"frame_read", "morph_decide", "lane_splice", "deliver"} {
		if len(spans[want]) != 1 {
			t.Fatalf("stage %q recorded %d times, want 1 (have %v)", want, len(spans[want]), keys(spans))
		}
	}
	if got := spans["morph_decide"][0].FP; got != f.Fingerprint() {
		t.Errorf("decision span FP = %016x, want %016x", got, f.Fingerprint())
	}
	if spans["lane_splice"][0].Parent != root.Context().Span {
		t.Error("lane span must parent under the delivery context")
	}
	if spans["deliver"][0].Parent != spans["lane_splice"][0].Span {
		t.Error("deliver span must nest inside the lane span")
	}
	for _, r := range tr.Snapshot() {
		if r.Trace != root.Context().Trace {
			t.Fatalf("span %v escaped the trace", r.Stage)
		}
	}
}

// TestTraceSpansRecordLaneXform: a transformation-chain delivery must record
// the record lane and one span per chain step, nested inside it.
func TestTraceSpansRecordLaneXform(t *testing.T) {
	from := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer), bf("y", pbio.Integer)})
	to := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer)})
	tr := trace.New(trace.Config{Capacity: 64})
	m := NewMorpher(DefaultThresholds, WithTracer(tr))
	if err := m.RegisterFormat(to, func(*pbio.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransform(&Xform{From: from, To: to, Code: "old.x = new.x;"}); err != nil {
		t.Fatal(err)
	}
	data := pbio.EncodeRecord(pbio.NewRecord(from).MustSet("x", pbio.Int(3)).MustSet("y", pbio.Int(4)))

	root := tr.StartTrace(trace.StageFrameRead)
	if err := m.DeliverEncodedCtx(data, from, root.Context()); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans := stagesByName(tr)
	for _, want := range []string{"morph_decide", "lane_record", "xform_step", "deliver"} {
		if len(spans[want]) != 1 {
			t.Fatalf("stage %q recorded %d times, want 1 (have %v)", want, len(spans[want]), keys(spans))
		}
	}
	step := spans["xform_step"][0]
	if step.Parent != spans["lane_record"][0].Span {
		t.Error("xform_step must nest inside lane_record")
	}
	if step.N != 0 {
		t.Errorf("step index = %d, want 0", step.N)
	}
	if step.FP != to.Fingerprint() {
		t.Errorf("step FP = %016x, want destination %016x", step.FP, to.Fingerprint())
	}
}

// TestTraceSpansConvert: a name-wise fill/drop conversion on the record lane
// (variable-width, so no splice program compiles) records a convert span.
func TestTraceSpansConvert(t *testing.T) {
	src := fmtOrDie(t, "m", []pbio.Field{bf("s", pbio.String), bf("extra", pbio.Integer)})
	dst := fmtOrDie(t, "m", []pbio.Field{bf("s", pbio.String), {Name: "q", Kind: pbio.Integer, Default: pbio.Int(-1)}})
	tr := trace.New(trace.Config{Capacity: 64})
	m := NewMorpher(DefaultThresholds, WithTracer(tr))
	if err := m.RegisterFormat(dst, func(*pbio.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	data := pbio.EncodeRecord(pbio.NewRecord(src).MustSet("s", pbio.Str("v")).MustSet("extra", pbio.Int(9)))

	root := tr.StartTrace(trace.StageFrameRead)
	if err := m.DeliverEncodedCtx(data, src, root.Context()); err != nil {
		t.Fatal(err)
	}
	root.End()

	if st := m.Stats(); st.Converted != 1 {
		t.Fatalf("expected a conversion: %+v", st)
	}
	spans := stagesByName(tr)
	for _, want := range []string{"morph_decide", "lane_record", "convert", "deliver"} {
		if len(spans[want]) != 1 {
			t.Fatalf("stage %q recorded %d times, want 1 (have %v)", want, len(spans[want]), keys(spans))
		}
	}
	if spans["convert"][0].Parent != spans["lane_record"][0].Span {
		t.Error("convert must nest inside lane_record")
	}
}

// TestTraceSpansBoxedDeliver: a boxed handler reached on the record lane
// without a transform or conversion — an identity decision on a
// variable-width format, which no splice serves — records the decision,
// lane and handler stages, the handler nested inside the lane.
func TestTraceSpansBoxedDeliver(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer), bf("s", pbio.String)})
	tr := trace.New(trace.Config{Capacity: 64})
	m := NewMorpher(DefaultThresholds, WithTracer(tr))
	if err := m.RegisterFormat(f, func(*pbio.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	data := pbio.EncodeRecord(pbio.NewRecord(f).MustSet("x", pbio.Int(2)).MustSet("s", pbio.Str("v")))
	root := tr.StartTrace(trace.StageFrameRead)
	if err := m.DeliverEncodedCtx(data, f, root.Context()); err != nil {
		t.Fatal(err)
	}
	root.End()

	if st := m.Stats(); st.SpliceMisses != 1 || st.Converted != 0 || st.Transformed != 0 {
		t.Fatalf("expected a plain record-lane delivery: %+v", st)
	}
	spans := stagesByName(tr)
	for _, want := range []string{"morph_decide", "lane_record", "deliver"} {
		if len(spans[want]) != 1 {
			t.Fatalf("stage %q recorded %d times, want 1 (have %v)", want, len(spans[want]), keys(spans))
		}
	}
	if spans["deliver"][0].Parent != spans["lane_record"][0].Span {
		t.Error("deliver span must nest inside lane_record")
	}
}

// TestSpliceLaneAllocs bounds what a warmed byte-lane delivery may allocate:
// nothing on the identity lane, at most the output buffer on the convert
// lane — bare, with a live tracer but an unsampled context (which must also
// record nothing), and with observability attached. The wall-clock cost of
// these lanes is benchmark/'s business; the counts are asserted here.
func TestSpliceLaneAllocs(t *testing.T) {
	wide := fmtOrDie(t, "host_stats", []pbio.Field{
		{Name: "timestamp", Kind: pbio.Unsigned, Size: 8},
		{Name: "node_id", Kind: pbio.Integer, Size: 4},
		{Name: "cpu_load", Kind: pbio.Float, Size: 8},
		{Name: "mem_used", Kind: pbio.Unsigned, Size: 8},
		{Name: "healthy", Kind: pbio.Boolean},
	})
	narrow := fmtOrDie(t, "host_stats", []pbio.Field{
		{Name: "node_id", Kind: pbio.Integer, Size: 4},
		{Name: "timestamp", Kind: pbio.Unsigned, Size: 8},
		{Name: "cpu_load", Kind: pbio.Float, Size: 8},
	})
	data := pbio.EncodeRecord(pbio.NewRecord(wide).
		MustSet("timestamp", pbio.Uint(1722902400)).
		MustSet("node_id", pbio.Int(17)).
		MustSet("cpu_load", pbio.Float64(0.73)).
		MustSet("mem_used", pbio.Uint(6<<30)).
		MustSet("healthy", pbio.Bool(true)))

	tr := trace.New(trace.Config{Capacity: 16})
	for _, lane := range []struct {
		name string
		dst  *pbio.Format
		max  float64
	}{
		{"identity", wide, 0},
		{"convert", narrow, 1},
	} {
		for _, with := range []struct {
			name string
			opts []MorpherOption
		}{
			{"bare", nil},
			{"unsampled tracer", []MorpherOption{WithTracer(tr)}},
			{"obs", []MorpherOption{WithObs(obs.NewRegistry("alloc"))}},
		} {
			m := NewMorpher(DefaultThresholds, with.opts...)
			if err := m.RegisterFormatEncoded(lane.dst, func([]byte, *pbio.Format) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if err := m.DeliverEncoded(data, wide); err != nil { // warm the decision cache
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(500, func() {
				if err := m.DeliverEncodedCtx(data, wide, trace.Context{}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > lane.max {
				t.Errorf("%s, %s: %.1f allocs/op, want ≤ %.0f", lane.name, with.name, allocs, lane.max)
			}
			if st := m.Stats(); st.SpliceMisses != 0 {
				t.Errorf("%s, %s: %d deliveries left the byte lane", lane.name, with.name, st.SpliceMisses)
			}
		}
	}
	if tr.Total() != 0 {
		t.Errorf("unsampled deliveries recorded %d spans", tr.Total())
	}
}

func keys(m map[string][]trace.SpanRecord) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
