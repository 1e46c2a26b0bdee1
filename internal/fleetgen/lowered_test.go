package fleetgen

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/echo"
	"repro/internal/ecode"
	"repro/internal/pbio"
)

// TestLoweredPlansMatchVM is the oracle for transforms that only move
// fields. For every ordered pair of generations of seeded lineages —
// renames included, which a name-wise conversion cannot bridge — a Morpher
// that knows the pair's XformBetween must deliver exactly the bytes the
// Ecode VM produces: Program.Run into a zero record of the target, then
// EncodeRecord. It must do so to an encoded handler and to a record
// handler, whose deliveries decode straight through the lowered plan. A pair whose formats share every field name matches
// name-wise as well as through the transform, and MaxMatch breaks that tie
// toward no transformation; every other pair runs the transform, as a
// conversion plan (Explanation.Lowered). Near misses — transforms that are
// almost a list of field moves — must not lower, and must deliver what the
// VM produces too. So must loops: Figure 5 and its variants lower, and
// near misses of its shape run on the VM.
func TestLoweredPlansMatchVM(t *testing.T) {
	t.Run("lineages", lineagePairs)
	t.Run("near misses", nearMisses)
	t.Run("loops", loopNearMisses)
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

// loopNearMisses runs the paper's Figure 5 — alone, with the protected
// trio the benchmark copies after it, with a seq field, and from a v2.0
// roster whose members list their fields in another order — which lower,
// beside near misses of its loop, which run on the VM.
func loopNearMisses(t *testing.T) {
	v2, v1 := echo.ResponseV2Format, echo.ResponseV1Format
	with := func(lead []pbio.Field, f *pbio.Format) *pbio.Format {
		return mustFormat(t, f.Name(), append(lead[:len(lead):len(lead)], f.Fields()...))
	}
	protected := []pbio.Field{
		{Name: "src", Kind: pbio.Unsigned, Size: 8},
		{Name: "seq", Kind: pbio.Unsigned, Size: 8},
		{Name: "check", Kind: pbio.Unsigned, Size: 8},
	}
	reordered := mustFormat(t, "ChannelOpenResponse", []pbio.Field{
		{Name: "member_count", Kind: pbio.Integer, Size: 4},
		{Name: "member_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: mustFormat(t, "MemberV2", []pbio.Field{
			{Name: "ID", Kind: pbio.Integer, Size: 4},
			{Name: "is_Sink", Kind: pbio.Boolean},
			{Name: "info", Kind: pbio.String},
			{Name: "is_Source", Kind: pbio.Boolean},
		})}},
	})
	fig5 := echo.Figure5Transform
	edit := func(old, new string) string {
		if !strings.Contains(fig5, old) {
			t.Fatalf("Figure 5 has no %q", old)
		}
		return strings.Replace(fig5, old, new, 1)
	}
	for _, tc := range []struct {
		name     string
		from, to *pbio.Format
		code     string
		lowers   bool
	}{
		{"Figure 5", v2, v1, fig5, true},
		{"Figure 5, then the protected trio", with(protected, v2), with(protected, v1),
			fig5 + "old.src = new.src; old.seq = new.seq; old.check = new.check; ", true},
		{"Figure 5, then seq", with(protected[1:2], v2), with(protected[1:2], v1), fig5 + "old.seq = new.seq;", true},
		{"Figure 5 from reordered members", reordered, v1, fig5, true},
		{"guard on an int", v2, v1, edit("[i].is_Source)", "[i].ID)"), false},
		{"counter stepped twice", v2, v1, edit("sink_count++;", "sink_count++; sink_count++;"), false},
		{"store read back", v2, v1, edit("old.src_list[src_count].ID = new", "old.src_list[src_count].ID = old.member_list[i].ID + 0 * new"), false},
		{"bound not a source field", v2, v1, edit("i < new.member_count", "i < len(new.member_list)"), false},
		{"two loops", v2, v1, fig5 + "for (i = 0; i < new.member_count; i++) { old.member_list[i].ID = new.member_list[i].ID; }", false},
		{"nested loop", v2, v1, strings.Replace(edit("old.member_list[i].ID = new.member_list[i].ID;",
			"for (j = 0; j < 1; j++) { old.member_list[i].ID = new.member_list[i].ID; }"), "int i,", "int j, i,", 1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lowered := 0
			if tc.lowers {
				lowered = 1
			}
			in := func(seq uint64) *pbio.Record { return rosterOf(tc.from, seq) }
			if e := checkAgainstVM(t, &core.Xform{From: tc.from, To: tc.to, Code: tc.code}, in); e.ChainLen != 1 || e.Lowered != lowered {
				t.Fatalf("Explain = %+v, want the transform, %d step(s) of it lowered", e, lowered)
			}
		})
	}
}

// rosterOf is a roster of format f, a ChannelOpenResponse v2.0 with or
// without leading unsigned fields, of seq%29 members whose roles and
// contacts follow from seq; its count is the list's length.
func rosterOf(f *pbio.Format, seq uint64) *pbio.Record {
	list := f.Field(f.Lookup("member_list"))
	members := make([]pbio.Value, seq%29)
	for i := range members {
		bits := seq>>(i%8) + uint64(i)
		members[i] = pbio.RecordOf(pbio.NewRecord(list.Elem.Sub).
			MustSet("info", pbio.Str(strings.Repeat("n", int(bits%5)))).
			MustSet("ID", pbio.Int(int64(bits)-9)).
			MustSet("is_Source", pbio.Bool(bits&1 != 0)).
			MustSet("is_Sink", pbio.Bool(bits&2 != 0)))
	}
	r := pbio.NewRecord(f).MustSet("member_list", pbio.ListOf(members)).MustSet("member_count", pbio.Int(int64(len(members))))
	for i := range f.NumFields() {
		if f.Field(i).Kind == pbio.Unsigned {
			r.MustSet(f.Field(i).Name, pbio.Uint(seq+uint64(i)))
		}
	}
	return r
}

// checkAgainstVM declares x to two Morphers that have x.To registered, one
// with an encoded handler and one with a record handler, checks that
// messages made by in, delivered to both as encoded bytes of x.From, arrive
// as the bytes the Ecode VM makes of them, and returns the explanation of
// the delivery, which the two Morphers must share.
func checkAgainstVM(t *testing.T, x *core.Xform, in func(seq uint64) *pbio.Record) core.Explanation {
	t.Helper()
	prog, err := ecode.Compile(x.Code,
		ecode.Param{Name: core.SrcParam, Format: x.From},
		ecode.Param{Name: core.DstParam, Format: x.To})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	enc := core.NewMorpher(core.Thresholds{Diff: math.MaxInt32, Mismatch: 1})
	if err := enc.RegisterFormatEncoded(x.To, func(data []byte, _ *pbio.Format) error {
		got = append(got[:0], data...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rec := core.NewMorpher(core.Thresholds{Diff: math.MaxInt32, Mismatch: 1})
	if err := rec.RegisterFormat(x.To, func(r *pbio.Record) error {
		got = pbio.EncodeRecord(r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var e core.Explanation
	for i, m := range []*core.Morpher{enc, rec} {
		if err := m.AddTransform(x); err != nil {
			t.Fatal(err)
		}
		ex, err := m.Explain(x.From)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Rejected || ex.Target != x.To || ex.ChainLen > 1 || ex.ChainLen == 1 && !ex.Perfect {
			t.Fatalf("Explain = %+v, want target %q, directly or through x\n code: %s", ex, x.To.Name(), x.Code)
		}
		if i > 0 && !reflect.DeepEqual(ex, e) {
			t.Fatalf("Explain = %+v with a record handler, %+v with an encoded one", ex, e)
		}
		e = ex
	}
	for _, seq := range []uint64{0, 1, 977, 1 << 40} {
		out := pbio.NewRecord(x.To)
		if _, err := prog.Run(in(seq), out); err != nil {
			t.Fatalf("seq %d: VM: %v", seq, err)
		}
		want := pbio.EncodeRecord(out)
		for i, m := range []*core.Morpher{enc, rec} {
			handler := [...]string{"an encoded", "a record"}[i]
			got = nil
			if err := m.DeliverEncoded(pbio.EncodeRecord(in(seq)), x.From); err != nil {
				t.Fatalf("seq %d: deliver to %s handler: %v", seq, handler, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seq %d: delivered %x to %s handler, the VM made %x\n code: %s", seq, got, handler, want, x.Code)
			}
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
