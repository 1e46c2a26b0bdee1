package fleetgen

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/ecode"
	"repro/internal/pbio"
)

// TestLoweredPlansMatchVM is the oracle for transforms that only move
// fields. For every ordered pair of generations of seeded lineages —
// renames included, which a name-wise conversion cannot bridge — a Morpher
// that knows the pair's XformBetween must deliver exactly the bytes the
// Ecode VM produces: Program.Run into a zero record of the target, then
// EncodeRecord. A pair whose formats share every field name matches
// name-wise as well as through the transform, and MaxMatch breaks that tie
// toward no transformation; every other pair runs the transform, as a
// conversion plan (Explanation.Lowered). Near misses — transforms that are
// almost a list of field moves — must not lower, and must deliver what the
// VM produces too.
func TestLoweredPlansMatchVM(t *testing.T) {
	t.Run("lineages", lineagePairs)
	t.Run("near misses", nearMisses)
}

func lineagePairs(t *testing.T) {
	pairs, chained := 0, 0
	for _, seed := range []int64{1, 2, 3} {
		gens := mustLineage(t, seed, 4, 20).Generations()
		for _, from := range gens {
			for _, to := range gens {
				if from == to {
					continue
				}
				x, err := XformBetween(from, to)
				if err != nil {
					t.Fatal(err)
				}
				e := checkAgainstVM(t, x, func(seq uint64) *pbio.Record { return from.NewRecord(seq) })
				if e.ChainLen == 0 && !(len(e.Dropped) == 0 && len(e.Defaulted) == 0) {
					t.Fatalf("gen%d→gen%d: Explain = %+v: a name-wise match that drops or fills beat the transform", from.Index, to.Index, e)
				}
				if e.Lowered != e.ChainLen {
					t.Fatalf("gen%d→gen%d: Explain = %+v: XformBetween only moves fields, so every step should run as a plan", from.Index, to.Index, e)
				}
				pairs++
				chained += e.ChainLen
			}
		}
	}
	t.Logf("%d ordered pairs, %d through the transform", pairs, chained)
	if pairs < 1000 || chained < pairs/2 {
		t.Fatalf("%d ordered pairs, %d through the transform; the lineages no longer exercise transforms", pairs, chained)
	}
}

// nearMisses runs transforms that are almost a list of field moves — but
// read the destination, write a field twice or the source, compute their
// right-hand side, store a record or a list, declare a local, loop or call
// a function — beside flat ones, some flat only once their operations over
// literals fold.
func nearMisses(t *testing.T) {
	sub := mustFormat(t, "pt", []pbio.Field{{Name: "x", Kind: pbio.Integer, Size: 4}})
	fields := []pbio.Field{
		{Name: "a", Kind: pbio.Integer, Size: 8},
		{Name: "b", Kind: pbio.Float, Size: 8},
		{Name: "s", Kind: pbio.String},
		{Name: "l", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer, Size: 4}},
		{Name: "r", Kind: pbio.Complex, Sub: sub},
		{Name: "u", Kind: pbio.Unsigned, Size: 4},
	}
	from := mustFormat(t, "near", append([]pbio.Field{{Name: "gone", Kind: pbio.Boolean}}, fields...))
	to := mustFormat(t, "near", append(fields[:len(fields):len(fields)], pbio.Field{Name: "h", Kind: pbio.Boolean}))
	in := func(seq uint64) *pbio.Record {
		r := pbio.NewRecord(from).
			MustSet("gone", pbio.Bool(true)).
			MustSet("a", pbio.Int(int64(seq)-7)).
			MustSet("b", pbio.Float64(float64(seq)+0.5)).
			MustSet("s", pbio.Str("seq")).
			MustSet("l", pbio.ListOf([]pbio.Value{pbio.Int(1), pbio.Int(int64(seq))})).
			MustSet("u", pbio.Uint(seq))
		r.GetIndex(from.Lookup("r")).Record().MustSet("x", pbio.Int(int64(seq)))
		return r
	}
	for _, tc := range []struct {
		name, code string
		lowers     bool
	}{
		{"moves", "old.a = new.a; old.b = new.b; old.s = new.s; old.u = new.u; old.h = new.b;", true},
		{"literals", "old.a = -3; old.b = 2; old.s = \"lit\"; old.u = 1 + 2; old.h = 0.5;", true},
		{"folded operators", "old.a = -(2 * 3); old.b = 1 ? 2 : 3.5; old.s = \"a\" + \"b\"; old.u = !0; old.h = 1.5 && \"x\";", true},
		{"nothing", "", true},
		{"reads dst", "old.a = new.a; old.b = old.a;", false},
		{"writes a field twice", "old.a = new.a; old.a = 7;", false},
		{"writes src", "old.a = new.a; new.b = 1.5; old.b = new.b;", false},
		{"arithmetic", "old.a = new.a + 0;", false},
		{"comparison", "old.h = new.a == 3;", false},
		{"string concatenation", "old.s = new.s + \"x\";", false},
		{"record field store", "old.a = new.a; old.r = new.r;", false},
		{"list field store", "old.a = new.a; old.l = new.l;", false},
		{"declaration", "int k; old.a = new.a;", false},
		{"loop", "int i; for (i = 0; i < 2; i++) old.a = new.a;", false},
		{"user function", "int id(int v) { return v; } old.a = id(new.a);", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lowered := 0
			if tc.lowers {
				lowered = 1
			}
			if e := checkAgainstVM(t, &core.Xform{From: from, To: to, Code: tc.code}, in); e.ChainLen != 1 || e.Lowered != lowered {
				t.Fatalf("Explain = %+v, want the transform, %d step(s) of it lowered", e, lowered)
			}
		})
	}
}

// checkAgainstVM declares x to a Morpher that has x.To registered, checks
// that messages made by in, delivered as encoded bytes of x.From, arrive as
// the bytes the Ecode VM makes of them, and returns the Morpher's
// explanation of the delivery.
func checkAgainstVM(t *testing.T, x *core.Xform, in func(seq uint64) *pbio.Record) core.Explanation {
	t.Helper()
	prog, err := ecode.Compile(x.Code,
		ecode.Param{Name: core.SrcParam, Format: x.From},
		ecode.Param{Name: core.DstParam, Format: x.To})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMorpher(core.Thresholds{Diff: math.MaxInt32, Mismatch: 1})
	var got []byte
	if err := m.RegisterFormatEncoded(x.To, func(data []byte, _ *pbio.Format) error {
		got = append(got[:0], data...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransform(x); err != nil {
		t.Fatal(err)
	}
	e, err := m.Explain(x.From)
	if err != nil {
		t.Fatal(err)
	}
	if e.Rejected || e.Target != x.To || e.ChainLen > 1 || e.ChainLen == 1 && !e.Perfect {
		t.Fatalf("Explain = %+v, want target %q, directly or through x\n code: %s", e, x.To.Name(), x.Code)
	}
	for _, seq := range []uint64{0, 1, 977, 1 << 40} {
		out := pbio.NewRecord(x.To)
		if _, err := prog.Run(in(seq), out); err != nil {
			t.Fatalf("seq %d: VM: %v", seq, err)
		}
		want := pbio.EncodeRecord(out)
		got = nil
		if err := m.DeliverEncoded(pbio.EncodeRecord(in(seq)), x.From); err != nil {
			t.Fatalf("seq %d: deliver: %v", seq, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seq %d: delivered %x, the VM made %x\n code: %s", seq, got, want, x.Code)
		}
	}
	return e
}

func mustFormat(t *testing.T, name string, fields []pbio.Field) *pbio.Format {
	t.Helper()
	f, err := pbio.NewFormat(name, fields)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
