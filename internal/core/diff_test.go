package core

import (
	"fmt"
	"testing"

	"repro/internal/pbio"
)

func fmtOrDie(t *testing.T, name string, fields []pbio.Field) *pbio.Format {
	t.Helper()
	f, err := pbio.NewFormat(name, fields)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func bf(name string, k pbio.Kind) pbio.Field { return pbio.Field{Name: name, Kind: k} }

// echoV1V2 builds the paper's Figure 4 ChannelOpenResponse formats.
func echoV1V2(t *testing.T) (v1, v2 *pbio.Format) {
	t.Helper()
	entry := fmtOrDie(t, "MemberEntry", []pbio.Field{
		bf("info", pbio.String),
		{Name: "ID", Kind: pbio.Integer, Size: 4},
	})
	memberV2 := fmtOrDie(t, "MemberV2", []pbio.Field{
		bf("info", pbio.String),
		{Name: "ID", Kind: pbio.Integer, Size: 4},
		bf("is_Source", pbio.Boolean),
		bf("is_Sink", pbio.Boolean),
	})
	v1 = fmtOrDie(t, "ChannelOpenResponse", []pbio.Field{
		{Name: "member_count", Kind: pbio.Integer, Size: 4},
		{Name: "member_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: entry}},
		{Name: "src_count", Kind: pbio.Integer, Size: 4},
		{Name: "src_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: entry}},
		{Name: "sink_count", Kind: pbio.Integer, Size: 4},
		{Name: "sink_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: entry}},
	})
	v2 = fmtOrDie(t, "ChannelOpenResponse", []pbio.Field{
		{Name: "member_count", Kind: pbio.Integer, Size: 4},
		{Name: "member_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: memberV2}},
	})
	return v1, v2
}

func TestDiffBasics(t *testing.T) {
	abc := fmtOrDie(t, "m", []pbio.Field{bf("a", pbio.Integer), bf("b", pbio.Float), bf("c", pbio.String)})
	tests := []struct {
		name   string
		f1, f2 *pbio.Format
		want   int
	}{
		{"identical", abc, abc, 0},
		{"same fields reordered",
			abc,
			fmtOrDie(t, "m", []pbio.Field{bf("c", pbio.String), bf("a", pbio.Integer), bf("b", pbio.Float)}),
			0},
		{"one renamed",
			abc,
			fmtOrDie(t, "m", []pbio.Field{bf("a", pbio.Integer), bf("b", pbio.Float), bf("z", pbio.String)}),
			1},
		{"subset target",
			abc,
			fmtOrDie(t, "m", []pbio.Field{bf("a", pbio.Integer)}),
			2},
		{"numeric kinds compatible",
			fmtOrDie(t, "m", []pbio.Field{bf("a", pbio.Integer)}),
			fmtOrDie(t, "m", []pbio.Field{bf("a", pbio.Float)}),
			0},
		{"bool into int compatible",
			fmtOrDie(t, "m", []pbio.Field{bf("a", pbio.Boolean)}),
			fmtOrDie(t, "m", []pbio.Field{bf("a", pbio.Integer)}),
			0},
		{"string vs int incompatible",
			fmtOrDie(t, "m", []pbio.Field{bf("a", pbio.String)}),
			fmtOrDie(t, "m", []pbio.Field{bf("a", pbio.Integer)}),
			1},
		{"width change compatible",
			fmtOrDie(t, "m", []pbio.Field{{Name: "a", Kind: pbio.Integer, Size: 4}}),
			fmtOrDie(t, "m", []pbio.Field{{Name: "a", Kind: pbio.Integer, Size: 8}}),
			0},
		{"drops before and past the 64th field", wideFormat(t), wideFormat(t, 3, 66), 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Diff(tt.f1, tt.f2); got != tt.want {
				t.Errorf("Diff = %d, want %d", got, tt.want)
			}
		})
	}
}

// wideFormat is a 70-field integer format without the fields at the given
// positions.
func wideFormat(t *testing.T, without ...int) *pbio.Format {
	var fields []pbio.Field
next:
	for i := 0; i < 70; i++ {
		for _, w := range without {
			if i == w {
				continue next
			}
		}
		fields = append(fields, bf(fmt.Sprintf("f%02d", i), pbio.Integer))
	}
	return fmtOrDie(t, "m", fields)
}

func TestDiffNested(t *testing.T) {
	inner := fmtOrDie(t, "inner", []pbio.Field{bf("x", pbio.Integer), bf("y", pbio.Integer)})
	innerBigger := fmtOrDie(t, "inner", []pbio.Field{bf("x", pbio.Integer), bf("y", pbio.Integer), bf("z", pbio.Integer)})
	withSub := fmtOrDie(t, "m", []pbio.Field{{Name: "sub", Kind: pbio.Complex, Sub: inner}})
	withBiggerSub := fmtOrDie(t, "m", []pbio.Field{{Name: "sub", Kind: pbio.Complex, Sub: innerBigger}})
	without := fmtOrDie(t, "m", []pbio.Field{bf("other", pbio.Integer)})
	flatSub := fmtOrDie(t, "m", []pbio.Field{bf("sub", pbio.Integer)})

	if got := Diff(withSub, withBiggerSub); got != 0 {
		t.Errorf("smaller sub into bigger sub: Diff = %d, want 0", got)
	}
	if got := Diff(withBiggerSub, withSub); got != 1 {
		t.Errorf("bigger sub into smaller sub: Diff = %d, want 1", got)
	}
	// Complex field entirely missing contributes its whole weight.
	if got := Diff(withSub, without); got != 2 {
		t.Errorf("missing complex: Diff = %d, want weight 2", got)
	}
	// Complex field vs same-named basic also contributes its whole weight.
	if got := Diff(withSub, flatSub); got != 2 {
		t.Errorf("complex vs basic: Diff = %d, want 2", got)
	}
	// Basic field vs same-named complex counts as missing.
	if got := Diff(flatSub, withSub); got != 1 {
		t.Errorf("basic vs complex: Diff = %d, want 1", got)
	}
}

func TestDiffLists(t *testing.T) {
	intList := fmtOrDie(t, "m", []pbio.Field{{Name: "l", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer}}})
	floatList := fmtOrDie(t, "m", []pbio.Field{{Name: "l", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Float}}})
	strList := fmtOrDie(t, "m", []pbio.Field{{Name: "l", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.String}}})
	scalar := fmtOrDie(t, "m", []pbio.Field{bf("l", pbio.Integer)})

	if got := Diff(intList, floatList); got != 0 {
		t.Errorf("int list vs float list: %d, want 0", got)
	}
	if got := Diff(intList, strList); got != 1 {
		t.Errorf("int list vs string list: %d, want 1", got)
	}
	if got := Diff(intList, scalar); got != 1 {
		t.Errorf("list vs scalar: %d, want 1 (element weight)", got)
	}
}

func TestDiffEchoVersions(t *testing.T) {
	v1, v2 := echoV1V2(t)
	// v2 → v1: is_Source and is_Sink have no counterpart in v1's entry.
	if got := Diff(v2, v1); got != 2 {
		t.Errorf("Diff(v2, v1) = %d, want 2", got)
	}
	// v1 → v2: src_count, sink_count (2) + src_list, sink_list (weight 2 each).
	if got := Diff(v1, v2); got != 6 {
		t.Errorf("Diff(v1, v2) = %d, want 6", got)
	}
	if Perfect(v1, v2) || !Perfect(v1, v1) {
		t.Error("Perfect wrong")
	}

	// W(v1) = member_count + 3×(info+ID) + 2 counts = 9; W(v2) = 1 + 4 = 5.
	if w := v1.Weight(); w != 9 {
		t.Errorf("Weight(v1) = %d, want 9", w)
	}
	if w := v2.Weight(); w != 5 {
		t.Errorf("Weight(v2) = %d, want 5", w)
	}
	// M_r(v2, v1) = Diff(v1, v2)/W(v1) = 6/9.
	if got, want := MismatchRatio(v2, v1), 6.0/9.0; got != want {
		t.Errorf("Mr(v2, v1) = %g, want %g", got, want)
	}
	// M_r(v1, v2) = Diff(v2, v1)/W(v2) = 2/5.
	if got, want := MismatchRatio(v1, v2), 2.0/5.0; got != want {
		t.Errorf("Mr(v1, v2) = %g, want %g", got, want)
	}
}

func TestMismatchRatioZeroWeight(t *testing.T) {
	empty := fmtOrDie(t, "e", []pbio.Field{{Name: "l", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex,
		Sub: fmtOrDie(t, "none", []pbio.Field{{Name: "l2", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer}}})}}})
	// Weight counts one int through the nested lists, so use a truly
	// weightless format: impossible to declare without basics; instead
	// verify the convention through a format whose counterpart is itself.
	if MismatchRatio(empty, empty) != 0 {
		t.Error("self mismatch must be 0")
	}
}

func TestMaxMatchSelection(t *testing.T) {
	// Candidate 1: two fields, both different (the paper's small-pair
	// example). Candidate 2: many matching fields, a few uncommon — the
	// better match despite a larger absolute diff.
	small1 := fmtOrDie(t, "p", []pbio.Field{bf("only_a", pbio.Integer)})
	small2 := fmtOrDie(t, "p", []pbio.Field{bf("only_b", pbio.Integer)})

	bigFields := make([]pbio.Field, 0, 20)
	for _, n := range []string{"f01", "f02", "f03", "f04", "f05", "f06", "f07", "f08", "f09", "f10",
		"f11", "f12", "f13", "f14", "f15", "f16"} {
		bigFields = append(bigFields, bf(n, pbio.Integer))
	}
	big1 := fmtOrDie(t, "p", append(append([]pbio.Field{}, bigFields...), bf("u1", pbio.Integer), bf("u2", pbio.Integer)))
	big2 := fmtOrDie(t, "p", append(append([]pbio.Field{}, bigFields...), bf("v1", pbio.Integer), bf("v2", pbio.Integer)))

	th := Thresholds{Diff: 10, Mismatch: 1.0}
	m, ok := MaxMatch([]*pbio.Format{small1, big1}, []*pbio.Format{small2, big2}, th, nil)
	if !ok {
		t.Fatal("no match")
	}
	// small pair: diff 1, Mr = 1/1 = 1. big pair: diff 2, Mr = 2/18 ≈ 0.11.
	if m.From != big1 || m.To != big2 {
		t.Errorf("MaxMatch picked (%q fields=%d → %q), want the big pair",
			m.From.Name(), m.From.NumFields(), m.To.Name())
	}
	if m.Diff != 2 {
		t.Errorf("Diff = %g, want 2", m.Diff)
	}
}

func TestMaxMatchThresholds(t *testing.T) {
	v1, v2 := echoV1V2(t)
	// v2 → v1 has diff 2, Mr 6/9.
	if _, ok := MaxMatch([]*pbio.Format{v2}, []*pbio.Format{v1}, Thresholds{}, nil); ok {
		t.Error("zero thresholds must admit only perfect matches")
	}
	if _, ok := MaxMatch([]*pbio.Format{v2}, []*pbio.Format{v1}, Thresholds{Diff: 2, Mismatch: 0.5}, nil); ok {
		t.Error("Mr 6/9 must fail a 0.5 mismatch threshold")
	}
	if _, ok := MaxMatch([]*pbio.Format{v2}, []*pbio.Format{v1}, Thresholds{Diff: 1, Mismatch: 1.0}, nil); ok {
		t.Error("diff 2 must fail a diff threshold of 1")
	}
	m, ok := MaxMatch([]*pbio.Format{v2}, []*pbio.Format{v1}, Thresholds{Diff: 2, Mismatch: 0.7}, nil)
	if !ok || m.From != v2 || m.To != v1 {
		t.Errorf("expected match under (2, 0.7): ok=%v m=%+v", ok, m)
	}
	// A perfect pair passes zero thresholds.
	if m, ok := MaxMatch([]*pbio.Format{v1}, []*pbio.Format{v1}, Thresholds{}, nil); !ok || !m.IsPerfect() {
		t.Error("identity must match under zero thresholds")
	}
}

func TestMaxMatchTieBreak(t *testing.T) {
	a := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer), bf("y", pbio.Integer)})
	b := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer), bf("y", pbio.Integer)})
	// a and b are structurally identical: both pairs score (0, 0). The
	// earlier F1 entry must win, so callers can put the identity first.
	m, ok := MaxMatch([]*pbio.Format{a, b}, []*pbio.Format{b}, Thresholds{}, nil)
	if !ok || m.From != a {
		t.Errorf("tie-break must keep the earliest candidate; got From=%p want %p", m.From, a)
	}
	// Least diff breaks equal mismatch ratios.
	target := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer)})
	oneExtra := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer), bf("e1", pbio.Integer)})
	twoExtra := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer), bf("e1", pbio.Integer), bf("e2", pbio.Integer)})
	m, ok = MaxMatch([]*pbio.Format{twoExtra, oneExtra}, []*pbio.Format{target}, Thresholds{Diff: 5, Mismatch: 1}, nil)
	if !ok || m.From != oneExtra {
		t.Errorf("least-diff tie-break failed: got %v", m.From)
	}
}

// TestMatchingAllocFree gates the cold decision's metrics: unweighted Diff,
// MismatchRatio and MaxMatch build no paths and allocate nothing, however
// deep the pairing recurses.
func TestMatchingAllocFree(t *testing.T) {
	v1, v2 := echoV1V2(t)
	f1s, f2s := []*pbio.Format{v1, v2}, []*pbio.Format{v2, v1}
	for name, run := range map[string]func(){
		"Diff":          func() { Diff(v1, v2) },
		"MismatchRatio": func() { MismatchRatio(v2, v1) },
		"MaxMatch":      func() { MaxMatch(f1s, f2s, DefaultThresholds, nil) },
	} {
		if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
}

func TestMaxMatchEmptyAndNil(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer)})
	if _, ok := MaxMatch(nil, []*pbio.Format{f}, DefaultThresholds, nil); ok {
		t.Error("empty F1 must not match")
	}
	if _, ok := MaxMatch([]*pbio.Format{f}, nil, DefaultThresholds, nil); ok {
		t.Error("empty F2 must not match")
	}
	if m, ok := MaxMatch([]*pbio.Format{nil, f}, []*pbio.Format{nil, f}, DefaultThresholds, nil); !ok || m.From != f {
		t.Error("nil entries must be skipped, not crash")
	}
}
