package ecode

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/pbio"
)

// TestSetObs: compilation and program runs feed the ecode.* instruments, and
// SetObs(nil) turns them back off.
func TestSetObs(t *testing.T) {
	reg := obs.NewRegistry("ecode-test")
	SetObs(reg)
	defer SetObs(nil)

	f, err := pbio.NewFormat("m", []pbio.Field{{Name: "x", Kind: pbio.Integer}})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile("return m.x * 2;", Param{Name: "m", Format: f})
	if err != nil {
		t.Fatal(err)
	}
	rec := pbio.NewRecord(f).MustSet("x", pbio.Int(21))
	v, err := prog.Run(rec)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int64() != 42 {
		t.Fatalf("result = %d", v.Int64())
	}

	snap := reg.Snapshot()
	if snap.Counters["ecode.compiles"] != 1 {
		t.Errorf("ecode.compiles = %d, want 1", snap.Counters["ecode.compiles"])
	}
	if h := snap.Histograms["ecode.compile_ns"]; h.Count != 1 || h.Sum == 0 {
		t.Errorf("ecode.compile_ns = %+v, want one nonzero sample", h)
	}
	if snap.Counters["ecode.runs"] != 1 {
		t.Errorf("ecode.runs = %d, want 1", snap.Counters["ecode.runs"])
	}
	if h := snap.Histograms["ecode.run_steps"]; h.Count != 1 || h.Sum == 0 {
		t.Errorf("ecode.run_steps = %+v, want one nonzero sample", h)
	}

	// Disable and confirm nothing further records.
	SetObs(nil)
	if _, err := prog.Run(rec); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["ecode.runs"]; got != 1 {
		t.Errorf("ecode.runs after SetObs(nil) = %d, want still 1", got)
	}
}

// TestRunObsHookOverhead: Run's instrumentation hook (an atomic pointer
// load) must not make Run allocate when disabled.
func TestRunObsHookOverhead(t *testing.T) {
	f, err := pbio.NewFormat("m", []pbio.Field{{Name: "x", Kind: pbio.Integer}})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile("return m.x;", Param{Name: "m", Format: f})
	if err != nil {
		t.Fatal(err)
	}
	rec := pbio.NewRecord(f).MustSet("x", pbio.Int(1))
	base := testing.AllocsPerRun(500, func() {
		if _, err := prog.Run(rec); err != nil {
			t.Fatal(err)
		}
	})
	SetObs(obs.NewRegistry("alloc"))
	defer SetObs(nil)
	instrumented := testing.AllocsPerRun(500, func() {
		if _, err := prog.Run(rec); err != nil {
			t.Fatal(err)
		}
	})
	if instrumented != base {
		t.Errorf("instrumented Run allocates %.1f, uninstrumented %.1f — hooks must not allocate", instrumented, base)
	}
}
