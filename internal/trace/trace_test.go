package trace

import (
	"sync"
	"testing"
	"time"
)

// TestNilSafety: a nil tracer and the zero Span must be inert no-ops —
// that is exactly what a component built without tracing holds.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer must report disabled")
	}
	sp := tr.StartTrace(StagePublish)
	if sp.Recording() || sp.Context().Valid() || sp.Context().Sampled {
		t.Fatal("nil tracer must hand out inert spans")
	}
	sp.N = 7
	sp.End()
	sp.EndErr(ErrBadContext)
	child := tr.StartSpan(Context{Sampled: true}, StageDeliver)
	if child.Recording() {
		t.Fatal("nil tracer StartSpan must be inert")
	}
	if tr.Total() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil tracer must be empty")
	}
	if got := tr.Tracez(); got.TotalSpans != 0 || len(got.Traces) != 0 {
		t.Fatalf("nil Tracez = %+v, want empty", got)
	}
}

// TestDisabledAllocationFree: the disabled path (nil tracer, and enabled
// tracer with an unsampled context) must not allocate — the property the
// "splice lane within 5% of PR 2" acceptance bar rests on.
func TestDisabledAllocationFree(t *testing.T) {
	var nilTracer *Tracer
	live := New(Config{Capacity: 16})
	unsampled := Context{}
	allocs := testing.AllocsPerRun(1000, func() {
		s := nilTracer.StartTrace(StagePublish)
		s.End()
		c := nilTracer.StartSpan(Context{Sampled: true}, StageDeliver)
		c.End()
		u := live.StartSpan(unsampled, StageDeliver)
		u.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestSpanRecording(t *testing.T) {
	tr := New(Config{Capacity: 64})
	root := tr.StartTrace(StagePublish)
	if !root.Recording() || !root.Context().Sampled || !root.Context().Valid() {
		t.Fatalf("root span not live: %+v", root.Context())
	}
	child := tr.StartSpan(root.Context(), StageEncode)
	child.N = 42
	child.FP = 0xDEADBEEF
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	root.End() // double End must not double-record

	spans := tr.Snapshot()
	if len(spans) != 2 || tr.Total() != 2 {
		t.Fatalf("recorded %d spans (total %d), want 2", len(spans), tr.Total())
	}
	c, r := spans[0], spans[1]
	if c.Stage != StageEncode || r.Stage != StagePublish {
		t.Fatalf("stages = %v, %v", c.Stage, r.Stage)
	}
	if c.Trace != r.Trace {
		t.Error("child must share the root's trace ID")
	}
	if c.Parent != r.Span {
		t.Error("child's parent must be the root span ID")
	}
	if c.Span == r.Span || c.Span.IsZero() {
		t.Error("span IDs must be unique and nonzero")
	}
	if c.N != 42 || c.FP != 0xDEADBEEF {
		t.Errorf("attributes lost: %+v", c)
	}
	if c.DurNS < int64(time.Millisecond) {
		t.Errorf("child duration %dns, want >= 1ms", c.DurNS)
	}
	if r.DurNS < c.DurNS {
		t.Errorf("root (%dns) must outlast child (%dns)", r.DurNS, c.DurNS)
	}
}

func TestHeadSampling(t *testing.T) {
	tr := New(Config{Capacity: 256, SampleEvery: 4})
	sampled := 0
	for i := 0; i < 100; i++ {
		s := tr.StartTrace(StagePublish)
		if s.Recording() {
			sampled++
			// Downstream spans of a sampled trace always record.
			c := tr.StartSpan(s.Context(), StageDeliver)
			if !c.Recording() {
				t.Fatal("child of sampled trace must record")
			}
			c.End()
		} else if s.Context().Sampled {
			t.Fatal("sampled-out root must carry an unsampled context")
		}
		s.End()
	}
	if sampled != 25 {
		t.Errorf("sampled %d of 100 with SampleEvery=4, want 25", sampled)
	}
	if got := tr.Total(); got != 50 {
		t.Errorf("recorded %d spans, want 50 (root+child per sampled trace)", got)
	}
}

func TestRingWrapsOldestFirst(t *testing.T) {
	tr := New(Config{Capacity: 4})
	for i := 0; i < 10; i++ {
		s := tr.StartTrace(StagePublish)
		s.N = int64(i)
		s.End()
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d", tr.Total())
	}
	got := tr.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d, want 4", len(got))
	}
	for i, r := range got {
		if want := uint64(7 + i); r.Seq != want || r.N != int64(want-1) {
			t.Errorf("entry %d: seq=%d n=%d, want seq=%d n=%d", i, r.Seq, r.N, want, want-1)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New(Config{Capacity: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := tr.StartTrace(StageFanout)
				c := tr.StartSpan(s.Context(), StageDeliver)
				c.End()
				s.End()
				_ = tr.Snapshot() // concurrent readers must be safe too
			}
		}()
	}
	wg.Wait()
	if tr.Total() != 8*200*2 {
		t.Errorf("total = %d, want %d", tr.Total(), 8*200*2)
	}
	// Main ring (64) ∪ slow-span tail ring (64/4): scheduling decides how
	// many spans ran past SlowNS and whether the main ring still has them.
	if got := len(tr.Snapshot()); got < 64 || got > 64+64/4 {
		t.Errorf("retained %d, want within [64, 80]", got)
	}
}

func TestContextWireRoundTrip(t *testing.T) {
	tr := New(Config{})
	want := tr.StartTrace(StagePublish).Context()
	b := want.AppendWire(nil)
	if len(b) != ContextWireSize {
		t.Fatalf("wire size = %d, want %d", len(b), ContextWireSize)
	}
	got, err := ParseWire(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}

	// Unsampled round trip.
	unsampled := Context{Trace: want.Trace, Span: want.Span}
	got, err = ParseWire(unsampled.AppendWire(nil))
	if err != nil || got.Sampled {
		t.Fatalf("unsampled round trip: %+v, %v", got, err)
	}

	// Malformed bodies.
	for _, bad := range [][]byte{nil, b[:10], append(append([]byte{}, b...), 0), make([]byte, ContextWireSize)} {
		if _, err := ParseWire(bad); err == nil {
			t.Errorf("ParseWire(%d bytes, zero=%v) accepted", len(bad), bad == nil)
		}
	}

	// Reserved flag bits must be ignored, not rejected.
	b[24] |= 0xFE
	got, err = ParseWire(b)
	if err != nil || !got.Sampled {
		t.Fatalf("reserved flags: %+v, %v", got, err)
	}
}

func TestIDUniqueness(t *testing.T) {
	tr := New(Config{})
	seen := make(map[SpanID]bool)
	parent := tr.StartTrace(StagePublish).Context()
	for i := 0; i < 10_000; i++ {
		s := tr.StartSpan(parent, StageDeliver)
		id := s.Context().Span
		if id.IsZero() || seen[id] {
			t.Fatalf("duplicate or zero span ID at %d: %s", i, id)
		}
		seen[id] = true
	}
}

func TestStageStrings(t *testing.T) {
	for s := StageUnknown; s <= StageDeliver; s++ {
		if s.String() == "" {
			t.Errorf("stage %d has no name", s)
		}
	}
	if Stage(200).String() != "unknown" {
		t.Error("out-of-range stage must render as unknown")
	}
}
