package pbio

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestValueLayout pins the packed representation: four words in four
// fields (more would keep Value out of registers), one pointer, not
// comparable with ==, and every kind's payload surviving the trip from
// constructor to accessor.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("Sizeof(Value) = %d, want 32", got)
	}
	if got := reflect.TypeOf(Value{}).NumField(); got != 4 {
		t.Errorf("Value has %d fields, want 4", got)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value must not be comparable: == would compare strings and lists by pointer")
	}

	if got := Int(math.MinInt64).Int64(); got != math.MinInt64 {
		t.Errorf("Int round trip = %d", got)
	}
	if got := Uint(math.MaxUint64).Uint64(); got != math.MaxUint64 {
		t.Errorf("Uint round trip = %d", got)
	}
	for _, x := range []float64{0, math.Copysign(0, -1), -1.5, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(-1)} {
		if got := Float64(x).Float64(); math.Float64bits(got) != math.Float64bits(x) {
			t.Errorf("Float64(%g) round trip = %g", x, got)
		}
	}
	if got := Float64(math.NaN()).Float64(); !math.IsNaN(got) {
		t.Errorf("Float64(NaN) round trip = %g", got)
	}
	if got := CharOf(0xFF).Int64(); got != 0xFF {
		t.Errorf("CharOf round trip = %d", got)
	}
	if got := EnumOf(-3).Int64(); got != -3 {
		t.Errorf("EnumOf round trip = %d", got)
	}
	if !Bool(true).Bool() || Bool(false).Bool() {
		t.Error("Bool round trip")
	}
	for _, s := range []string{"", "x", strings.Repeat("long string ", 100)} {
		v := Str(s)
		if v.Strval() != s || v.Len() != len(s) {
			t.Errorf("Str(%.10q) round trip = %.10q (len %d)", s, v.Strval(), v.Len())
		}
	}
	f := mustFormatT(t, "f", []Field{basicField("x", Integer)})
	r := NewRecord(f)
	if RecordOf(r).Record() != r || RecordOf(nil).Record() != nil {
		t.Error("RecordOf round trip")
	}

	if l := ListOf(nil).List(); l != nil {
		t.Errorf("ListOf(nil).List() = %v, want nil", l)
	}
	if l := ListOf([]Value{}).List(); l == nil || len(l) != 0 {
		t.Errorf("ListOf([]Value{}).List() = %#v, want empty non-nil", l)
	}
	elems := make([]Value, 2, 5)
	elems[1] = Int(7)
	l := ListOf(elems).List()
	if len(l) != 2 || cap(l) != 5 || &l[0] != &elems[0] || l[1].Int64() != 7 {
		t.Errorf("ListOf round trip: len %d cap %d, shared %v", len(l), cap(l), &l[0] == &elems[0])
	}

	// GrowList appends in place while the capacity lasts; the value must
	// carry the capacity for that to hold.
	lf := mustFormatT(t, "lf", []Field{{Name: "l", Kind: List, Elem: &Field{Kind: Integer, Size: 8}}})
	lr := NewRecord(lf)
	if err := lr.SetIndex(0, ListOf(append(make([]Value, 0, 4), Int(1)))); err != nil {
		t.Fatal(err)
	}
	grown, err := lr.GrowList(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := lr.GetIndex(0).List(); len(got) != 3 || cap(got) != 4 || &got[0] != &grown[0] {
		t.Errorf("after GrowList: len %d cap %d, want 3 and 4 in the same array", len(got), cap(got))
	}
	if _, err := lr.GrowList(0, 9); err != nil {
		t.Fatal(err)
	}
	if got := lr.GetIndex(0).List(); len(got) != 9 || cap(got) < 9 {
		t.Errorf("after growing past cap: len %d cap %d", len(got), cap(got))
	}
}

// TestValueBool checks that "any non-zero numeric value is true" holds for
// every kind, floats included.
func TestValueBool(t *testing.T) {
	f := mustFormatT(t, "f", []Field{basicField("x", Integer)})
	tests := []struct {
		name string
		v    Value
		want bool
	}{
		{"int 0", Int(0), false},
		{"int -1", Int(-1), true},
		{"uint max", Uint(math.MaxUint64), true},
		{"char 0", CharOf(0), false},
		{"enum 2", EnumOf(2), true},
		{"bool true", Bool(true), true},
		{"bool false", Bool(false), false},
		{"float 1.5", Float64(1.5), true},
		{"float 0.25", Float64(0.25), true},
		{"float 0", Float64(0), false},
		{"float -0", Float64(math.Copysign(0, -1)), false},
		{"float NaN", Float64(math.NaN()), true},
		{"string", Str("yes"), false},
		{"record", RecordOf(NewRecord(f)), false},
		{"list", ListOf(make([]Value, 1, 3)), false},
		{"invalid", Value{}, false},
	}
	for _, tt := range tests {
		if got := tt.v.Bool(); got != tt.want {
			t.Errorf("%s: Bool = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind Kind
		i64  int64
		f64  float64
		str  string
	}{
		{"int", Int(-42), Integer, -42, -42, ""},
		{"uint", Uint(42), Unsigned, 42, 42, ""},
		{"uint large", Uint(math.MaxUint64), Unsigned, -1, float64(uint64(math.MaxUint64)), ""},
		{"float", Float64(2.5), Float, 2, 2.5, ""},
		{"char", CharOf('A'), Char, 65, 65, ""},
		{"enum", EnumOf(3), Enum, 3, 3, ""},
		{"bool true", Bool(true), Boolean, 1, 1, ""},
		{"bool false", Bool(false), Boolean, 0, 0, ""},
		{"string", Str("hi"), String, 0, 0, "hi"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.v.Kind() != tt.kind {
				t.Errorf("Kind = %v, want %v", tt.v.Kind(), tt.kind)
			}
			if tt.v.Int64() != tt.i64 {
				t.Errorf("Int64 = %d, want %d", tt.v.Int64(), tt.i64)
			}
			if tt.v.Float64() != tt.f64 {
				t.Errorf("Float64 = %g, want %g", tt.v.Float64(), tt.f64)
			}
			if tt.v.Strval() != tt.str {
				t.Errorf("Strval = %q, want %q", tt.v.Strval(), tt.str)
			}
		})
	}
}

func TestValueZero(t *testing.T) {
	var v Value
	if !v.IsZero() || v.Kind() != Invalid {
		t.Error("zero Value must be Invalid")
	}
	if Int(0).IsZero() {
		t.Error("Int(0) is a valid value, not zero")
	}
}

func TestValueLen(t *testing.T) {
	if got := Str("abc").Len(); got != 3 {
		t.Errorf("string Len = %d, want 3", got)
	}
	if got := ListOf([]Value{Int(1), Int(2)}).Len(); got != 2 {
		t.Errorf("list Len = %d, want 2", got)
	}
	if got := Int(5).Len(); got != 0 {
		t.Errorf("int Len = %d, want 0", got)
	}
}

func TestValueCloneIsolation(t *testing.T) {
	f := mustFormatT(t, "f", []Field{basicField("x", Integer)})
	inner := NewRecord(f).MustSet("x", Int(1))
	list := ListOf([]Value{RecordOf(inner)})

	clone := list.Clone()
	if !clone.Equal(list) {
		t.Fatal("clone must equal original")
	}
	// Mutate the original; the clone must not see it.
	inner.MustSet("x", Int(99))
	if clone.List()[0].Record().GetIndex(0).Int64() != 1 {
		t.Error("Clone shared nested record storage with the original")
	}
}

func TestValueEqual(t *testing.T) {
	f := mustFormatT(t, "f", []Field{basicField("x", Integer)})
	r1 := NewRecord(f).MustSet("x", Int(1))
	r2 := NewRecord(f).MustSet("x", Int(1))
	r3 := NewRecord(f).MustSet("x", Int(2))

	eq := []struct {
		name string
		a, b Value
		want bool
	}{
		{"ints equal", Int(1), Int(1), true},
		{"ints differ", Int(1), Int(2), false},
		{"kind mismatch", Int(1), Uint(1), false},
		{"floats equal", Float64(1.5), Float64(1.5), true},
		{"nan equals nan", Float64(math.NaN()), Float64(math.NaN()), true},
		{"strings", Str("a"), Str("a"), true},
		{"strings differ", Str("a"), Str("b"), false},
		{"records equal", RecordOf(r1), RecordOf(r2), true},
		{"records differ", RecordOf(r1), RecordOf(r3), false},
		{"nil records", RecordOf(nil), RecordOf(nil), true},
		{"nil vs record", RecordOf(nil), RecordOf(r1), false},
		{"lists equal", ListOf([]Value{Int(1)}), ListOf([]Value{Int(1)}), true},
		{"lists length", ListOf([]Value{Int(1)}), ListOf(nil), false},
		{"lists elem", ListOf([]Value{Int(1)}), ListOf([]Value{Int(2)}), false},
		{"zero values", Value{}, Value{}, true},
	}
	for _, tt := range eq {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("Equal = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Int(-5), "-5"},
		{Uint(math.MaxUint64), "18446744073709551615"},
		{Bool(true), "true"},
		{Str("a"), `"a"`},
		{ListOf([]Value{Int(1), Int(2)}), "[1, 2]"},
		{Value{}, "<invalid>"},
		{RecordOf(nil), "<nil record>"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String(%v) = %q, want %q", tt.v.Kind(), got, tt.want)
		}
	}
}

func TestZeroValuePerKind(t *testing.T) {
	sub := mustFormatT(t, "sub", []Field{basicField("x", Integer)})
	f := mustFormatT(t, "f", []Field{
		basicField("i", Integer),
		basicField("u", Unsigned),
		basicField("fl", Float),
		basicField("c", Char),
		basicField("e", Enum),
		basicField("s", String),
		basicField("b", Boolean),
		{Name: "sub", Kind: Complex, Sub: sub},
		{Name: "list", Kind: List, Elem: &Field{Kind: Integer}},
	})
	r := NewRecord(f)
	for i := 0; i < f.NumFields(); i++ {
		v := r.GetIndex(i)
		fld := f.Field(i)
		if v.Kind() != fld.Kind {
			t.Errorf("field %q zero kind = %v, want %v", fld.Name, v.Kind(), fld.Kind)
		}
	}
	if sv, _ := r.Get("sub"); sv.Record() == nil {
		t.Error("complex zero value must be an allocated record")
	}
	if s := r.String(); !strings.Contains(s, "sub{") {
		t.Errorf("record String missing nested record: %s", s)
	}
}
