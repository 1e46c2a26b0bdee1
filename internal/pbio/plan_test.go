package pbio

import (
	"strings"
	"testing"
)

// TestNewPlanRejects: a plan NewPlan builds can never make the decoder
// store a value its target field would refuse, so every malformed plan is
// refused up front.
func TestNewPlanRejects(t *testing.T) {
	pt := MustFormat("pt", []Field{{Name: "x", Kind: Integer, Size: 4}})
	other := MustFormat("pt", []Field{{Name: "y", Kind: Float, Size: 8}})
	from := MustFormat("m", []Field{
		{Name: "n", Kind: Integer, Size: 2},
		{Name: "s", Kind: String},
		{Name: "r", Kind: Complex, Sub: pt},
		{Name: "l", Kind: List, Elem: &Field{Kind: Integer, Size: 4}},
	})
	to := MustFormat("m", []Field{
		{Name: "wide", Kind: Float, Size: 8},
		{Name: "s", Kind: String},
		{Name: "r", Kind: Complex, Sub: other},
		{Name: "l", Kind: List, Elem: &Field{Kind: Unsigned, Size: 8}},
	})
	twice := MustFormat("m", []Field{
		{Name: "r1", Kind: Complex, Sub: pt},
		{Name: "r2", Kind: Complex, Sub: pt},
		{Name: "l1", Kind: List, Elem: &Field{Kind: Integer, Size: 4}},
		{Name: "l2", Kind: List, Elem: &Field{Kind: Integer, Size: 4}},
	})
	idPlan, err := NewPlan(pt, pt, []PlanField{{Src: 0}})
	if err != nil {
		t.Fatal(err)
	}
	fill := PlanField{Src: NoSource}
	for _, tc := range []struct {
		name   string
		to     *Format
		fields []PlanField
		want   string
	}{
		{"too few fields", to, []PlanField{{Src: 0}}, "field entries"},
		{"slot out of range", to, []PlanField{{Src: 4}, fill, fill, fill}, "out of range"},
		{"record read into two slots", twice, []PlanField{{Src: 2, Sub: idPlan}, {Src: 2, Sub: idPlan}, fill, fill}, "share its memory"},
		{"list read into two slots", twice, []PlanField{fill, fill, {Src: 3}, {Src: 3}}, "share its memory"},
		{"number into string", to, []PlanField{fill, {Src: 0}, fill, fill}, "cannot decode"},
		{"string into number", to, []PlanField{{Src: 1}, fill, fill, fill}, "cannot decode"},
		{"list into scalar", to, []PlanField{{Src: 3}, fill, fill, fill}, "cannot decode"},
		{"records without a nested plan", to, []PlanField{fill, fill, {Src: 2}, fill}, "nested plan"},
		{"nested plan to the wrong record", to, []PlanField{fill, fill, {Src: 2, Sub: idPlan}, fill}, "nested plan"},
		{"nested plan on a scalar", to, []PlanField{{Src: 0, Sub: idPlan}, fill, fill, fill}, "cannot decode"},
		{"fill count", to, []PlanField{fill, fill, fill, fill, {Src: NoSource, Fill: Int(1)}}, "field entries"},
		{"fill of a slot a field fills", to, []PlanField{{Src: 0, Fill: Int(1)}, fill, fill, fill}, "both filled and read"},
		{"fill of the wrong kind", to, []PlanField{fill, {Src: NoSource, Fill: Int(1)}, fill, fill}, "fill of field"},
		{"no target, but fields", nil, []PlanField{fill, fill, fill, fill}, "no target"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewPlan(from, tc.to, tc.fields)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewPlan error %v, want one about %q", err, tc.want)
			}
		})
	}
}

// TestPlanDecodeCoercesAndFills: a value lands in its slot coerced as
// SetIndex would coerce it, list elements and nested records included, and
// a basic value read into two slots is coerced into each on its own; a
// skipped field is validated but not built; an unfilled slot holds its
// fill, or NewRecord's zero value. Decode and Convert build the same
// record, on the general and on the fixed-stride decoder.
func TestPlanDecodeCoercesAndFills(t *testing.T) {
	pt := MustFormat("pt", []Field{{Name: "x", Kind: Integer, Size: 4}, {Name: "y", Kind: Integer, Size: 4}})
	ptOut := MustFormat("pt", []Field{{Name: "y", Kind: Integer, Size: 1}, {Name: "z", Kind: Boolean}})
	from := MustFormat("m", []Field{
		{Name: "n", Kind: Integer, Size: 2},
		{Name: "s", Kind: String},
		{Name: "gone", Kind: String},
		{Name: "l", Kind: List, Elem: &Field{Kind: Integer, Size: 4}},
		{Name: "r", Kind: List, Elem: &Field{Kind: Complex, Sub: pt}},
		{Name: "w", Kind: Integer, Size: 4},
	})
	to := MustFormat("m", []Field{
		{Name: "r", Kind: List, Elem: &Field{Kind: Complex, Sub: ptOut}},
		{Name: "l", Kind: List, Elem: &Field{Kind: Float, Size: 4}},
		{Name: "flag", Kind: Boolean},
		{Name: "sub", Kind: Complex, Sub: ptOut},
		{Name: "n", Kind: Unsigned, Size: 1},
		{Name: "s", Kind: String},
		{Name: "q", Kind: Integer, Size: 4},
		{Name: "w8", Kind: Integer, Size: 1},
		{Name: "w64", Kind: Integer, Size: 8},
	})
	sub, err := NewPlan(pt, ptOut, []PlanField{{Src: 1}, {Src: NoSource, Fill: Int(2)}})
	if err != nil {
		t.Fatal(err)
	}
	fill := PlanField{Src: NoSource}
	p, err := NewPlan(from, to, []PlanField{{Src: 4, Sub: sub}, {Src: 3}, fill, fill, {Src: 0}, {Src: 1},
		{Src: NoSource, Fill: Float64(-7.9)}, {Src: 5}, {Src: 5}})
	if err != nil {
		t.Fatal(err)
	}
	in := NewRecord(from).
		MustSet("n", Int(-1)).
		MustSet("s", Str("kept")).
		MustSet("gone", Str("skipped")).
		MustSet("l", ListOf([]Value{Int(3), Int(1 << 30)})).
		MustSet("r", ListOf([]Value{RecordOf(NewRecord(pt).MustSet("x", Int(5)).MustSet("y", Int(300)))})).
		MustSet("w", Int(300))
	want := NewRecord(to).
		MustSet("n", Int(-1)).
		MustSet("s", Str("kept")).
		MustSet("l", ListOf([]Value{Int(3), Int(1 << 30)})).
		MustSet("r", ListOf([]Value{RecordOf(NewRecord(ptOut).MustSet("y", Int(300)).MustSet("z", Int(2)))})).
		MustSet("q", Float64(-7.9)).
		MustSet("w8", Int(44)).
		MustSet("w64", Int(300))
	planMatches(t, p, in, want)

	// The fixed-stride decoder fans a value out the same way.
	wide := MustFormat("w", []Field{{Name: "w", Kind: Integer, Size: 4}})
	narrow := MustFormat("w", []Field{{Name: "w8", Kind: Integer, Size: 1}, {Name: "w64", Kind: Integer, Size: 8}})
	fp, err := NewPlan(wide, narrow, []PlanField{{Src: 0}, {Src: 0}})
	if err != nil {
		t.Fatal(err)
	}
	planMatches(t, fp, NewRecord(wide).MustSet("w", Int(-200)), NewRecord(narrow).MustSet("w8", Int(56)).MustSet("w64", Int(-200)))

	payload := AppendPayload(nil, in)
	if _, err := p.Decode(payload[:len(payload)-1]); err == nil {
		t.Fatal("a truncated payload decoded through the plan")
	}
	// The skipped string's bytes are still checked: claim more than remain.
	bad := append([]byte(nil), payload...)
	bad[2+1+len("kept")] = 0x7f
	if _, err := DecodePayload(bad, from); err == nil {
		t.Fatal("the corrupt payload decodes without a plan")
	}
	if _, err := p.Decode(bad); err == nil {
		t.Fatal("a corrupt skipped field decoded through the plan")
	}
}

// planMatches checks that p builds want from in, both by decoding in's
// encoding and by converting in.
func planMatches(t *testing.T, p *Plan, in, want *Record) {
	t.Helper()
	decoded, err := p.Decode(AppendPayload(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	converted, err := p.Convert(in)
	if err != nil {
		t.Fatal(err)
	}
	if !decoded.Equal(want) || !converted.Equal(want) {
		t.Fatalf("decoded   %v\nconverted %v\nwant      %v", decoded, converted, want)
	}
}
