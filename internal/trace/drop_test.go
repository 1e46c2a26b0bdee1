package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSpansDroppedCounting: overflowing the ring counts every overwrite in
// Dropped(), mirrors it to the obs registry, and surfaces it in the tracez
// snapshot — ring overflow must never be silent.
func TestSpansDroppedCounting(t *testing.T) {
	reg := obs.NewRegistry("test")
	// SlowNS: -1 → tail retains only failed spans; these fast successes churn.
	tr := New(Config{Capacity: 4, SlowNS: -1, Obs: reg})
	for i := 0; i < 10; i++ {
		sp := tr.StartTrace(StagePublish)
		sp.End()
	}
	if got := tr.Dropped(); got != 6 {
		t.Errorf("Dropped() = %d, want 6 (10 spans into a 4-slot ring)", got)
	}
	if got := reg.Counter(SpansDroppedMetric).Load(); got != 6 {
		t.Errorf("obs %s = %d, want 6", SpansDroppedMetric, got)
	}
	snap := tr.Tracez()
	if snap.SpansDropped != 6 {
		t.Errorf("Tracez().SpansDropped = %d, want 6", snap.SpansDropped)
	}
	if !strings.Contains(snap.Text(), "6 dropped") {
		t.Errorf("text rendering missing drop count:\n%s", snap.Text())
	}

	// Without an obs registry the counter hook is a silent no-op.
	tr2 := New(Config{Capacity: 1, SlowNS: -1})
	for i := 0; i < 3; i++ {
		sp := tr2.StartTrace(StagePublish)
		sp.End()
	}
	if got := tr2.Dropped(); got != 2 {
		t.Errorf("registry-less Dropped() = %d, want 2", got)
	}
}

// TestTailRetentionBias: slow and failed spans survive main-ring churn that
// evicts everything else, and the merged snapshot carries no duplicates.
func TestTailRetentionBias(t *testing.T) {
	// 1ms threshold: the 2ms sleeper is slow, the no-op churn spans are not.
	tr := New(Config{Capacity: 8, SlowNS: int64(time.Millisecond)})

	// One failed fast span and one slow span, then enough fast successes to
	// churn the main ring several times over.
	fail := tr.StartTrace(StageDeliver)
	fail.Err = true
	fail.End()
	slow := tr.StartTrace(StageFanout)
	time.Sleep(2 * time.Millisecond)
	slow.End()

	for i := 0; i < 100; i++ {
		sp := tr.StartTrace(StagePublish)
		sp.End()
	}

	spans := tr.Snapshot()
	seen := make(map[uint64]int)
	var gotErr, gotSlow bool
	for _, r := range spans {
		seen[r.Seq]++
		if r.Err && r.Stage == StageDeliver {
			gotErr = true
		}
		if r.Stage == StageFanout && r.DurNS >= int64(2*time.Millisecond) {
			gotSlow = true
		}
	}
	for seq, n := range seen {
		if n > 1 {
			t.Errorf("seq %d appears %d times in merged snapshot", seq, n)
		}
	}
	if !gotErr {
		t.Error("failed span evicted despite tail retention")
	}
	if !gotSlow {
		t.Error("slow span evicted despite tail retention")
	}
}
