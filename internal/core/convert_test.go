package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pbio"
)

func TestConverterFillDropReorder(t *testing.T) {
	from := fmtOrDie(t, "m", []pbio.Field{
		bf("keep", pbio.Integer),
		bf("dropme", pbio.String),
		bf("num", pbio.Integer),
	})
	to := fmtOrDie(t, "m", []pbio.Field{
		{Name: "num", Kind: pbio.Float}, // reordered + widened
		bf("keep", pbio.Integer),
		{Name: "added", Kind: pbio.Integer, Default: pbio.Int(42)},
		bf("added_nodefault", pbio.String),
	})
	c := NewConverter(from, to)
	if got := c.Dropped(); !reflect.DeepEqual(got, []string{"dropme"}) {
		t.Errorf("Dropped = %v", got)
	}
	if got := c.Defaulted(); !reflect.DeepEqual(got, []string{"added", "added_nodefault"}) {
		t.Errorf("Defaulted = %v", got)
	}

	in := pbio.NewRecord(from).
		MustSet("keep", pbio.Int(7)).
		MustSet("dropme", pbio.Str("gone")).
		MustSet("num", pbio.Int(3))
	out, err := c.Convert(in)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := out.Get("keep"); v.Int64() != 7 {
		t.Errorf("keep = %v", v)
	}
	if v, _ := out.Get("num"); v.Kind() != pbio.Float || v.Float64() != 3 {
		t.Errorf("num = %v, want float 3", v)
	}
	if v, _ := out.Get("added"); v.Int64() != 42 {
		t.Errorf("added = %v, want default 42", v)
	}
	if v, _ := out.Get("added_nodefault"); v.Strval() != "" {
		t.Errorf("added_nodefault = %v, want zero value", v)
	}
}

func TestConverterNestedAndLists(t *testing.T) {
	innerFrom := fmtOrDie(t, "inner", []pbio.Field{bf("x", pbio.Integer), bf("extra", pbio.Integer)})
	innerTo := fmtOrDie(t, "inner", []pbio.Field{bf("x", pbio.Integer), {Name: "y", Kind: pbio.Integer, Default: pbio.Int(-1)}})
	from := fmtOrDie(t, "m", []pbio.Field{
		{Name: "sub", Kind: pbio.Complex, Sub: innerFrom},
		{Name: "subs", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: innerFrom}},
		{Name: "nums", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer}},
		{Name: "names", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.String}},
	})
	to := fmtOrDie(t, "m", []pbio.Field{
		{Name: "sub", Kind: pbio.Complex, Sub: innerTo},
		{Name: "subs", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: innerTo}},
		{Name: "nums", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Float}},
		{Name: "names", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.String}},
	})

	mkInner := func(x int64) pbio.Value {
		return pbio.RecordOf(pbio.NewRecord(innerFrom).MustSet("x", pbio.Int(x)).MustSet("extra", pbio.Int(99)))
	}
	in := pbio.NewRecord(from).
		MustSet("sub", mkInner(1)).
		MustSet("subs", pbio.ListOf([]pbio.Value{mkInner(2), mkInner(3)})).
		MustSet("nums", pbio.ListOf([]pbio.Value{pbio.Int(10), pbio.Int(20)})).
		MustSet("names", pbio.ListOf([]pbio.Value{pbio.Str("a")}))

	out, err := ConvertByName(in, to)
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := out.Get("sub")
	if got := sub.Record().GetIndex(0).Int64(); got != 1 {
		t.Errorf("sub.x = %d", got)
	}
	if got := sub.Record().GetIndex(1).Int64(); got != -1 {
		t.Errorf("sub.y default = %d, want -1", got)
	}
	subs, _ := out.Get("subs")
	if subs.Len() != 2 || subs.List()[1].Record().GetIndex(0).Int64() != 3 {
		t.Errorf("subs = %v", subs)
	}
	nums, _ := out.Get("nums")
	if nums.Len() != 2 || nums.List()[0].Kind() != pbio.Float || nums.List()[1].Float64() != 20 {
		t.Errorf("nums = %v (elements must be coerced to float)", nums)
	}
	names, _ := out.Get("names")
	if names.Len() != 1 || names.List()[0].Strval() != "a" {
		t.Errorf("names = %v", names)
	}
}

func TestConverterIncompatibleFieldsBecomeFills(t *testing.T) {
	from := fmtOrDie(t, "m", []pbio.Field{
		bf("a", pbio.String), // string cannot fill numeric "a"
		bf("b", pbio.Integer),
	})
	to := fmtOrDie(t, "m", []pbio.Field{
		{Name: "a", Kind: pbio.Integer, Default: pbio.Int(5)},
		bf("b", pbio.Integer),
	})
	c := NewConverter(from, to)
	in := pbio.NewRecord(from).MustSet("a", pbio.Str("nope")).MustSet("b", pbio.Int(2))
	out, err := c.Convert(in)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := out.Get("a"); v.Int64() != 5 {
		t.Errorf("incompatible field must use default: a = %v", v)
	}
	if got := c.Dropped(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("Dropped = %v", got)
	}
}

func TestConverterListShapeMismatch(t *testing.T) {
	from := fmtOrDie(t, "m", []pbio.Field{bf("l", pbio.Integer)})
	to := fmtOrDie(t, "m", []pbio.Field{{Name: "l", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer}}})
	out, err := ConvertByName(pbio.NewRecord(from).MustSet("l", pbio.Int(9)), to)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := out.Get("l"); v.Kind() != pbio.List || v.Len() != 0 {
		t.Errorf("scalar→list must fill empty list, got %v", v)
	}
}

func TestConvertWrongInputFormat(t *testing.T) {
	a := fmtOrDie(t, "a", []pbio.Field{bf("x", pbio.Integer)})
	b := fmtOrDie(t, "b", []pbio.Field{bf("x", pbio.Integer)})
	c := NewConverter(a, b)
	if _, err := c.Convert(pbio.NewRecord(b)); err == nil {
		t.Error("Convert must reject records of the wrong source format")
	}
}

func TestConverterIsolation(t *testing.T) {
	inner := fmtOrDie(t, "inner", []pbio.Field{bf("x", pbio.Integer)})
	f := fmtOrDie(t, "m", []pbio.Field{
		{Name: "subs", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: inner}},
	})
	in := pbio.NewRecord(f)
	sub := pbio.NewRecord(inner).MustSet("x", pbio.Int(1))
	in.MustSet("subs", pbio.ListOf([]pbio.Value{pbio.RecordOf(sub)}))

	out, err := ConvertByName(in, f)
	if err != nil {
		t.Fatal(err)
	}
	sub.MustSet("x", pbio.Int(99))
	subs, _ := out.Get("subs")
	if subs.List()[0].Record().GetIndex(0).Int64() != 1 {
		t.Error("converted record aliases source storage")
	}
}

// TestConvertListAllocs gates the reorder conversion of a 28-member roster
// (the benchmark's roster_morph sink b) by allocation count: the converted
// members share one slab instead of costing two allocations each.
func TestConvertListAllocs(t *testing.T) {
	member := fmtOrDie(t, "MemberV2", []pbio.Field{
		{Name: "info", Kind: pbio.String},
		{Name: "ID", Kind: pbio.Integer, Size: 4},
		{Name: "is_Source", Kind: pbio.Boolean},
		{Name: "is_Sink", Kind: pbio.Boolean},
	})
	reordered := fmtOrDie(t, "MemberV2", []pbio.Field{
		{Name: "ID", Kind: pbio.Integer, Size: 4},
		{Name: "is_Sink", Kind: pbio.Boolean},
		{Name: "info", Kind: pbio.String},
		{Name: "is_Source", Kind: pbio.Boolean},
	})
	from := fmtOrDie(t, "Roster", []pbio.Field{
		{Name: "member_count", Kind: pbio.Integer, Size: 4},
		{Name: "member_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: member}},
	})
	to := fmtOrDie(t, "Roster", []pbio.Field{
		{Name: "member_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: reordered}},
		{Name: "member_count", Kind: pbio.Integer, Size: 4},
	})
	elems := make([]pbio.Value, 28)
	for i := range elems {
		elems[i] = pbio.RecordOf(pbio.NewRecord(member).
			MustSet("info", pbio.Str(fmt.Sprintf("tcp://node-%05d:%d", i*7919, i))).
			MustSet("ID", pbio.Int(int64(i))).
			MustSet("is_Sink", pbio.Bool(i%2 == 0)))
	}
	in := pbio.NewRecord(from).
		MustSet("member_count", pbio.Int(28)).
		MustSet("member_list", pbio.ListOf(elems))
	c := NewConverter(from, to)

	var out *pbio.Record
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if out, err = c.Convert(in); err != nil {
			t.Fatal(err)
		}
	})
	got, _ := out.Get("member_list")
	if got.Len() != 28 || got.List()[27].Record().GetIndex(0).Int64() != 27 ||
		!got.List()[26].Record().GetIndex(1).Bool() || got.List()[3].Record().GetIndex(2).Strval() != elems[3].Record().GetIndex(0).Strval() {
		t.Fatalf("converted roster is wrong: %v", out)
	}
	// The output record and its values, the element array, and the
	// members' records and values.
	if allocs > 5 {
		t.Errorf("converting a 28-member roster: %v allocs, want <= 5", allocs)
	}
}
