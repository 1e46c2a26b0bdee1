package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleetgen"
	"repro/internal/pbio"
)

// BenchmarkDeliverLowered is the A/B for transforms that only move fields:
// one fleetgen generation delivered as its lineage's base generation,
// through the pair's XformBetween. "plan" runs the transform as the
// conversion plan it lowers to; "vm" adds "+ 0" to one store, which keeps
// the result but not the lowering, so the Ecode VM runs it.
func BenchmarkDeliverLowered(b *testing.B) {
	lin, err := fleetgen.NewLineage("bench", 7, 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	for range 12 {
		if _, err := lin.Evolve(); err != nil {
			b.Fatal(err)
		}
	}
	from, to := lin.Latest(), lin.Generations()[0]
	x, err := fleetgen.XformBetween(from, to)
	if err != nil {
		b.Fatal(err)
	}
	data := pbio.EncodeRecord(from.NewRecord(977))

	for _, tc := range []struct {
		name    string
		code    string
		lowered int
	}{
		{"plan", x.Code, 1},
		{"vm", strings.Replace(x.Code, "= new.seq;", "= new.seq + 0;", 1), 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := core.NewMorpher(core.DefaultThresholds)
			if err := m.RegisterFormatEncoded(to.Format, func([]byte, *pbio.Format) error { return nil }); err != nil {
				b.Fatal(err)
			}
			if err := m.AddTransform(&core.Xform{From: from.Format, To: to.Format, Code: tc.code}); err != nil {
				b.Fatal(err)
			}
			if ex, err := m.Explain(from.Format); err != nil || ex.ChainLen != 1 || ex.Lowered != tc.lowered {
				b.Fatalf("Explain = %+v, %v; want one step, %d lowered", ex, err, tc.lowered)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.DeliverEncoded(data, from.Format); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
