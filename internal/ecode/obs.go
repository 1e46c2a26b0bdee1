package ecode

import (
	"sync/atomic"

	"repro/internal/obs"
)

// obsState caches the instrument handles SetObs resolved, so Compile and
// Run pay one atomic pointer load (plus a nil branch) per call — not a
// registry lookup.
type obsState struct {
	compiles  *obs.Counter
	compileNS *obs.Histogram
	runs      *obs.Counter
	runSteps  *obs.Histogram
}

var obsCur atomic.Pointer[obsState]

// SetObs installs a package-level observability registry recording
// compilation time ("ecode.compiles", "ecode.compile_ns") and per-program
// execution step counts ("ecode.runs", "ecode.run_steps" — the budget
// consumed by each Run across all user-function calls, as Program.MaxSteps
// counts it). Compile is a free function, hence package-level
// state, mirroring expvar. Pass nil to disable again. Safe for concurrent
// use; in-flight runs keep the registry they started with.
func SetObs(reg *obs.Registry) {
	if reg == nil {
		obsCur.Store(nil)
		return
	}
	obsCur.Store(&obsState{
		compiles:  reg.Counter("ecode.compiles"),
		compileNS: reg.Histogram("ecode.compile_ns"),
		runs:      reg.Counter("ecode.runs"),
		runSteps:  reg.Histogram("ecode.run_steps"),
	})
}
