package ecode_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/echo"
	"repro/internal/ecode"
	"repro/internal/fleetgen"
	"repro/internal/pbio"
)

// FuzzCompile drives arbitrary source through the lexer, parser, checker
// and compiler against Figure 5's two formats (fleet false) or a pair of
// fleetgen generations (fleet true). Source is either rejected with
// ErrSyntax or ErrCompile, or compiles to a program that, within a
// 100,000-step budget, returns a value or an ErrRuntime. Nothing panics.
func FuzzCompile(f *testing.F) {
	lineage, err := fleetgen.NewLineage("fuzz", 1, 7, 4)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := lineage.Evolve(); err != nil {
			f.Fatal(err)
		}
	}
	from, to := lineage.Latest(), lineage.Generations()[0]
	x, err := fleetgen.XformBetween(from, to)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(echo.Figure5Transform, false)
	f.Add(x.Code, true)
	for _, h := range bindingHazards {
		f.Add(h.src, false)
	}
	for _, tmpl := range ecode.ProgramTemplates {
		src := strings.ReplaceAll(tmpl, "%d", "3")
		f.Add(src, false)
		f.Add(src, true)
	}
	members := []echo.Member{
		{Info: "tcp:n1:4000", ID: 7, IsSource: true},
		{Info: "", ID: -1, IsSink: true},
		{Info: "tcp:n3:4002", ID: 1 << 30, IsSource: true, IsSink: true},
	}

	f.Fuzz(func(t *testing.T, src string, fleet bool) {
		in, out := echo.ResponseV2Record(members), pbio.NewRecord(echo.ResponseV1Format)
		if fleet {
			in, out = from.NewRecord(9), pbio.NewRecord(to.Format)
		}
		prog, err := ecode.Compile(src,
			ecode.Param{Name: core.SrcParam, Format: in.Format()},
			ecode.Param{Name: core.DstParam, Format: out.Format()})
		if err != nil {
			if !errors.Is(err, ecode.ErrSyntax) && !errors.Is(err, ecode.ErrCompile) {
				t.Fatalf("Compile: %v, want ErrSyntax or ErrCompile", err)
			}
			return
		}
		prog.MaxSteps = 100_000
		if _, err := prog.Run(in, out); err != nil && !errors.Is(err, ecode.ErrRuntime) {
			t.Fatalf("Run: %v, want nil or ErrRuntime", err)
		}
	})
}
