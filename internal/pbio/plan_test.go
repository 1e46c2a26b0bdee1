package pbio

import (
	"bytes"
	"errors"
	"fmt"
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

// Formats for the Each tests: a counted roster of members, and a target
// that keeps every member, the flagged ones, and how many were flagged.
var (
	eachMember = MustFormat("member", []Field{
		{Name: "name", Kind: String},
		{Name: "id", Kind: Integer, Size: 4},
		{Name: "flag", Kind: Boolean},
	})
	eachEntry = MustFormat("entry", []Field{
		{Name: "id", Kind: Integer, Size: 8},
		{Name: "name", Kind: String},
		{Name: "note", Kind: Integer, Size: 2},
	})
	eachFrom = MustFormat("roster", []Field{
		{Name: "n", Kind: Integer, Size: 4},
		{Name: "members", Kind: List, Elem: &Field{Kind: Complex, Sub: eachMember}},
		{Name: "tail", Kind: String},
	})
	eachTo = MustFormat("roster", []Field{
		{Name: "all", Kind: List, Elem: &Field{Kind: Complex, Sub: eachEntry}},
		{Name: "flagged", Kind: List, Elem: &Field{Kind: Complex, Sub: eachEntry}},
		{Name: "nflagged", Kind: Float, Size: 4},
		{Name: "untouched", Kind: List, Elem: &Field{Kind: Complex, Sub: eachEntry}},
	})
)

// errOverrun is the Overrun of the Each tests.
var errOverrun = errors.New("overrun")

// eachPlan is the plan from eachFrom to eachTo: "all" gets the first n
// members, "flagged" those of them whose flag is set, and "nflagged"
// counts them.
func eachPlan(t *testing.T) *Plan {
	t.Helper()
	elem, err := NewPlan(eachMember, eachEntry, []PlanField{{Src: 1}, {Src: 0}, {Src: NoSource}})
	if err != nil {
		t.Fatal(err)
	}
	over := func(length int) error { return fmt.Errorf("%w at %d", errOverrun, length) }
	p, err := NewPlan(eachFrom, eachTo, []PlanField{
		{Src: 1, Sub: elem, Each: &Each{Bound: 0, Guard: NoSource, Count: NoSource, Overrun: over}},
		{Src: 1, Sub: elem, Each: &Each{Bound: 0, Guard: 2, Count: 2, Overrun: over}},
		{Src: NoSource},
		{Src: NoSource},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// eachRoster is an eachFrom record of len(flags) members, member i
// flagged as flags[i], and count n.
func eachRoster(n int64, flags ...bool) *Record {
	members := make([]Value, len(flags))
	for i, fl := range flags {
		members[i] = RecordOf(NewRecord(eachMember).
			MustSet("name", Str(fmt.Sprintf("m%d", i))).
			MustSet("id", Int(int64(-i))).
			MustSet("flag", Bool(fl)))
	}
	return NewRecord(eachFrom).MustSet("n", Int(n)).MustSet("members", ListOf(members)).MustSet("tail", Str("t"))
}

// eachWant is what eachPlan builds from the members of in listed in all,
// with those listed in flagged flagged.
func eachWant(in *Record, all, flagged []int) *Record {
	entries := func(idx []int) Value {
		if len(idx) == 0 {
			return Value{kind: List}
		}
		var l []Value
		for _, i := range idx {
			m := in.GetIndex(1).List()[i].Record()
			l = append(l, RecordOf(NewRecord(eachEntry).MustSet("id", m.GetIndex(1)).MustSet("name", m.GetIndex(0))))
		}
		return ListOf(l)
	}
	out := NewRecord(eachTo)
	out.vals[0], out.vals[1] = entries(all), entries(flagged)
	if len(flagged) > 0 {
		out.MustSet("nflagged", Int(int64(len(flagged))))
	}
	return out
}

// TestPlanEach: a list entry with an Each moves the elements its bound
// admits and its guard passes, into lists of their own even when two
// entries read one source list, and counts them; a list that gets none
// keeps NewRecord's zero value. A bound past the list's end fails with
// Overrun, and a payload that does not decode fails with the decoder's
// own error even when its bound is past its list's end. Decode and
// Convert agree throughout.
func TestPlanEach(t *testing.T) {
	p := eachPlan(t)
	for _, tc := range []struct {
		name         string
		in           *Record
		all, flagged []int
	}{
		{"bound = length", eachRoster(4, true, false, true, true), []int{0, 1, 2, 3}, []int{0, 2, 3}},
		{"bound < length", eachRoster(2, false, true, true), []int{0, 1}, []int{1}},
		{"bound 0", eachRoster(0, true, true), nil, nil},
		{"negative bound", eachRoster(-5, true), nil, nil},
		{"no members", eachRoster(0), nil, nil},
		{"none flagged", eachRoster(3, false, false, false), []int{0, 1, 2}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			planMatches(t, p, tc.in, eachWant(tc.in, tc.all, tc.flagged))
		})
	}

	// The two lists share no element, and no memory but strings.
	out, err := p.Decode(AppendPayload(nil, eachRoster(2, true, true)))
	if err != nil {
		t.Fatal(err)
	}
	out.GetIndex(1).List()[0].Record().MustSet("note", Int(7))
	if out.GetIndex(0).List()[0].Record().GetIndex(2).Int64() != 0 {
		t.Fatal("two lists built from one source list share an element")
	}

	over := eachRoster(5, true, false)
	payload := AppendPayload(nil, over)
	if _, err := p.Decode(payload); !errors.Is(err, errOverrun) || err.Error() != "overrun at 2" {
		t.Fatalf("Decode of a bound past the end: %v, want the plan's overrun at 2", err)
	}
	if _, err := p.Convert(over); !errors.Is(err, errOverrun) || err.Error() != "overrun at 2" {
		t.Fatalf("Convert of a bound past the end: %v, want the plan's overrun at 2", err)
	}
	for _, bad := range [][]byte{payload[:len(payload)-1], append(bytes.Clone(payload), 0)} {
		_, want := DecodePayload(bad, eachFrom)
		if _, err := p.Decode(bad); want == nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("Decode of a bad payload whose bound is past the end: %v, want the decoder's %v", err, want)
		}
	}
}

// TestNewPlanRejectsEach: NewPlan refuses an Each it cannot run, and
// reads a source list into two entries only when both have one.
func TestNewPlanRejectsEach(t *testing.T) {
	elem, err := NewPlan(eachMember, eachEntry, []PlanField{{Src: 1}, {Src: 0}, {Src: NoSource}})
	if err != nil {
		t.Fatal(err)
	}
	late := MustFormat("roster", []Field{
		{Name: "members", Kind: List, Elem: &Field{Kind: Complex, Sub: eachMember}},
		{Name: "n", Kind: Integer, Size: 4},
		{Name: "x", Kind: Float, Size: 8},
	})
	over := func(int) error { return errOverrun }
	each := func(bound, guard, count int) *Each {
		return &Each{Bound: bound, Guard: guard, Count: count, Overrun: over}
	}
	all := each(0, NoSource, NoSource)
	fill := PlanField{Src: NoSource}
	for _, tc := range []struct {
		name   string
		from   *Format
		fields []PlanField
		want   string
	}{
		{"bound after the list", late, []PlanField{{Src: 0, Sub: elem, Each: each(1, NoSource, NoSource)}, fill, fill, fill}, "before the list"},
		{"float bound", MustFormat("roster", []Field{{Name: "n", Kind: Float, Size: 8}, eachFrom.Fields()[1]}),
			[]PlanField{{Src: 1, Sub: elem, Each: all}, fill, fill, fill}, "not an integer"},
		{"two bounds", MustFormat("roster", []Field{{Name: "n", Kind: Integer, Size: 4}, {Name: "m", Kind: Integer, Size: 4}, eachFrom.Fields()[1]}),
			[]PlanField{{Src: 2, Sub: elem, Each: each(0, NoSource, NoSource)}, {Src: 2, Sub: elem, Each: each(1, NoSource, NoSource)}, fill, fill}, "another loop's"},
		{"bound without Overrun", eachFrom, []PlanField{{Src: 1, Sub: elem, Each: &Each{Bound: 0, Guard: NoSource, Count: NoSource}}, fill, fill, fill}, "no Overrun"},
		{"guard not Boolean", eachFrom, []PlanField{{Src: 1, Sub: elem, Each: each(0, 1, NoSource)}, fill, fill, fill}, "not a Boolean"},
		{"count of a read field", eachFrom, []PlanField{{Src: 1, Sub: elem, Each: each(0, NoSource, 2)}, fill, {Src: 0}, fill}, "no other entry feeds"},
		{"count of a list", eachFrom, []PlanField{{Src: 1, Sub: elem, Each: each(0, NoSource, 3)}, fill, fill, fill}, "no other entry feeds"},
		{"count twice", eachFrom, []PlanField{{Src: 1, Sub: elem, Each: each(0, NoSource, 2)}, {Src: 1, Sub: elem, Each: each(0, NoSource, 2)}, fill, fill}, "counted twice"},
		{"looped list also read whole", eachFrom, []PlanField{{Src: 1, Sub: elem, Each: all}, {Src: 1, Sub: elem}, fill, fill}, "share its memory"},
		{"list read whole, then looped", eachFrom, []PlanField{{Src: 1, Sub: elem}, {Src: 1, Sub: elem, Each: all}, fill, fill}, "share its memory"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewPlan(tc.from, eachTo, tc.fields)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewPlan error %v, want one about %q", err, tc.want)
			}
		})
	}
	nested, err := NewPlan(eachFrom, eachTo, []PlanField{{Src: 1, Sub: elem, Each: all}, fill, fill, fill})
	if err != nil {
		t.Fatal(err)
	}
	holder := MustFormat("h", []Field{{Name: "r", Kind: Complex, Sub: eachFrom}})
	holderTo := MustFormat("h", []Field{{Name: "r", Kind: Complex, Sub: eachTo}})
	if _, err := NewPlan(holder, holderTo, []PlanField{{Src: 0, Sub: nested}}); err == nil || !strings.Contains(err.Error(), "loop of its own") {
		t.Fatalf("NewPlan with a looping nested plan: %v, want a refusal", err)
	}
}
