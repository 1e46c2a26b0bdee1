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
// through the pair's XformBetween, and a 28-member v2.0 roster delivered
// as v1.0 through Figure 5, both into encoded handlers. "plan" runs the
// transform as the conversion plan it lowers to; "vm" runs a near miss of
// it on the Ecode VM, which builds the same result: the fleetgen
// transform with "+ 0" added to one store, Figure 5 with a store that
// reads the destination after its loop.
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
	gen := pbio.EncodeRecord(from.NewRecord(977))

	for _, tc := range []struct {
		name     string
		from, to *pbio.Format
		code     string
		data     []byte
		lowered  int
	}{
		{"plan", from.Format, to.Format, x.Code, gen, 1},
		{"vm", from.Format, to.Format, strings.Replace(x.Code, "= new.seq;", "= new.seq + 0;", 1), gen, 0},
		{"figure5_plan", figure5.From, figure5.To, figure5.Code, roster(28), 1},
		{"figure5_vm", figure5VM.From, figure5VM.To, figure5VM.Code, roster(28), 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := core.NewMorpher(core.DefaultThresholds)
			if err := m.RegisterFormatEncoded(tc.to, func([]byte, *pbio.Format) error { return nil }); err != nil {
				b.Fatal(err)
			}
			if err := m.AddTransform(&core.Xform{From: tc.from, To: tc.to, Code: tc.code}); err != nil {
				b.Fatal(err)
			}
			if ex, err := m.Explain(tc.from); err != nil || ex.ChainLen != 1 || ex.Lowered != tc.lowered {
				b.Fatalf("Explain = %+v, %v; want one step, %d lowered", ex, err, tc.lowered)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.DeliverEncoded(tc.data, tc.from); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
