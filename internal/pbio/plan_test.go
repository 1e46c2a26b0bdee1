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
	idPlan, err := NewPlan(pt, pt, []PlanField{{Slot: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	skip := PlanField{Slot: Skip}
	for _, tc := range []struct {
		name   string
		to     *Format
		fields []PlanField
		fill   []Value
		want   string
	}{
		{"too few fields", to, []PlanField{{Slot: 0}}, nil, "field entries"},
		{"slot out of range", to, []PlanField{{Slot: 4}, skip, skip, skip}, nil, "out of range"},
		{"slot taken twice", to, []PlanField{{Slot: 0}, {Slot: 1}, {Slot: 1}, skip}, nil, "taken"},
		{"number into string", to, []PlanField{{Slot: 1}, skip, skip, skip}, nil, "cannot decode"},
		{"string into number", to, []PlanField{skip, {Slot: 0}, skip, skip}, nil, "cannot decode"},
		{"list into scalar", to, []PlanField{skip, skip, skip, {Slot: 0}}, nil, "cannot decode"},
		{"records without a nested plan", to, []PlanField{skip, skip, {Slot: 2}, skip}, nil, "nested plan"},
		{"nested plan to the wrong record", to, []PlanField{skip, skip, {Slot: 2, Sub: idPlan}, skip}, nil, "nested plan"},
		{"nested plan on a scalar", to, []PlanField{{Slot: 0, Sub: idPlan}, skip, skip, skip}, nil, "cannot decode"},
		{"fill count", to, []PlanField{skip, skip, skip, skip}, []Value{Int(1)}, "fill values"},
		{"fill of a slot a field fills", to, []PlanField{{Slot: 0}, skip, skip, skip}, []Value{Int(1), {}, {}, {}}, "both filled and read"},
		{"fill of the wrong kind", to, []PlanField{skip, skip, skip, skip}, []Value{{}, Int(1), {}, {}}, "fill of field"},
		{"no target, but fields", nil, []PlanField{skip, skip, skip, skip}, nil, "no target"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewPlan(from, tc.to, tc.fields, tc.fill)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewPlan error %v, want one about %q", err, tc.want)
			}
		})
	}
}

// TestPlanDecodeCoercesAndFills: a value lands in its slot coerced as
// SetIndex would coerce it, list elements and nested records included; a
// skipped field is validated but not built; an unfilled slot holds its
// fill, or NewRecord's zero value.
func TestPlanDecodeCoercesAndFills(t *testing.T) {
	pt := MustFormat("pt", []Field{{Name: "x", Kind: Integer, Size: 4}, {Name: "y", Kind: Integer, Size: 4}})
	ptOut := MustFormat("pt", []Field{{Name: "y", Kind: Integer, Size: 1}, {Name: "z", Kind: Boolean}})
	from := MustFormat("m", []Field{
		{Name: "n", Kind: Integer, Size: 2},
		{Name: "s", Kind: String},
		{Name: "gone", Kind: String},
		{Name: "l", Kind: List, Elem: &Field{Kind: Integer, Size: 4}},
		{Name: "r", Kind: List, Elem: &Field{Kind: Complex, Sub: pt}},
	})
	to := MustFormat("m", []Field{
		{Name: "r", Kind: List, Elem: &Field{Kind: Complex, Sub: ptOut}},
		{Name: "l", Kind: List, Elem: &Field{Kind: Float, Size: 4}},
		{Name: "flag", Kind: Boolean},
		{Name: "sub", Kind: Complex, Sub: ptOut},
		{Name: "n", Kind: Unsigned, Size: 1},
		{Name: "s", Kind: String},
		{Name: "q", Kind: Integer, Size: 4},
	})
	sub, err := NewPlan(pt, ptOut, []PlanField{{Slot: Skip}, {Slot: 0}}, []Value{{}, Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(from, to, []PlanField{{Slot: 4}, {Slot: 5}, {Slot: Skip}, {Slot: 1}, {Slot: 0, Sub: sub}},
		[]Value{{}, {}, {}, {}, {}, {}, Float64(-7.9)})
	if err != nil {
		t.Fatal(err)
	}
	in := NewRecord(from).
		MustSet("n", Int(-1)).
		MustSet("s", Str("kept")).
		MustSet("gone", Str("skipped")).
		MustSet("l", ListOf([]Value{Int(3), Int(1 << 30)})).
		MustSet("r", ListOf([]Value{RecordOf(NewRecord(pt).MustSet("x", Int(5)).MustSet("y", Int(300)))}))
	payload := AppendPayload(nil, in)

	got, err := p.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := NewRecord(to).
		MustSet("n", Int(-1)).
		MustSet("s", Str("kept")).
		MustSet("l", ListOf([]Value{Int(3), Int(1 << 30)})).
		MustSet("r", ListOf([]Value{RecordOf(NewRecord(ptOut).MustSet("y", Int(300)).MustSet("z", Int(2)))})).
		MustSet("q", Float64(-7.9))
	if !got.Equal(want) {
		t.Fatalf("decoded %v\nwant    %v", got, want)
	}
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
