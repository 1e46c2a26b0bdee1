package pbio

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func basicField(name string, k Kind) Field {
	return Field{Name: name, Kind: k}
}

func mustFormatT(t *testing.T, name string, fields []Field) *Format {
	t.Helper()
	f, err := NewFormat(name, fields)
	if err != nil {
		t.Fatalf("NewFormat(%q): %v", name, err)
	}
	return f
}

func TestNewFormatValidation(t *testing.T) {
	sub := mustFormatT(t, "sub", []Field{basicField("x", Integer)})
	tests := []struct {
		name    string
		fname   string
		fields  []Field
		wantErr string
	}{
		{"empty name", "", []Field{basicField("a", Integer)}, "empty format name"},
		{"empty field name", "f", []Field{{Kind: Integer}}, "empty name"},
		{"duplicate field", "f", []Field{basicField("a", Integer), basicField("a", Float)}, "duplicate"},
		{"invalid kind", "f", []Field{{Name: "a"}}, "invalid kind"},
		{"bad int size", "f", []Field{{Name: "a", Kind: Integer, Size: 3}}, "cannot have size"},
		{"bad float size", "f", []Field{{Name: "a", Kind: Float, Size: 2}}, "cannot have size"},
		{"bad bool size", "f", []Field{{Name: "a", Kind: Boolean, Size: 4}}, "cannot have size"},
		{"string with size", "f", []Field{{Name: "a", Kind: String, Size: 8}}, "cannot have size"},
		{"complex without sub", "f", []Field{{Name: "a", Kind: Complex}}, "needs a Sub"},
		{"list without elem", "f", []Field{{Name: "a", Kind: List}}, "needs an Elem"},
		{"list of list", "f", []Field{{Name: "a", Kind: List,
			Elem: &Field{Kind: List, Elem: &Field{Kind: Integer}}}}, "list of list"},
		{"bad default kind", "f", []Field{{Name: "a", Kind: Integer, Default: Str("x")}}, "default value"},
		{"string default on int", "f", []Field{{Name: "a", Kind: String, Default: Int(1)}}, "default value"},
		{"ok basic", "f", []Field{basicField("a", Integer)}, ""},
		{"ok nested", "f", []Field{{Name: "a", Kind: Complex, Sub: sub}}, ""},
		{"ok list of complex", "f", []Field{{Name: "a", Kind: List,
			Elem: &Field{Kind: Complex, Sub: sub}}}, ""},
		{"ok default", "f", []Field{{Name: "a", Kind: Integer, Default: Int(7)}}, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewFormat(tt.fname, tt.fields)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tt.wantErr)
			}
			if !errors.Is(err, ErrBadFormat) {
				t.Errorf("error %v does not wrap ErrBadFormat", err)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("error %q does not contain %q", err, tt.wantErr)
			}
		})
	}
}

func TestFormatCycleRejected(t *testing.T) {
	inner := mustFormatT(t, "inner", []Field{basicField("x", Integer)})
	// Build a legitimate format, then attempt to use it as its own Sub via a
	// fresh declaration that references it twice at different depths — the
	// tree restriction allows that; a true cycle cannot be constructed
	// through the public API because formats are immutable. Referencing the
	// same sub twice must be accepted.
	f, err := NewFormat("outer", []Field{
		{Name: "a", Kind: Complex, Sub: inner},
		{Name: "b", Kind: Complex, Sub: inner},
	})
	if err != nil {
		t.Fatalf("diamond sharing should be legal: %v", err)
	}
	if f.Weight() != 2 {
		t.Errorf("Weight = %d, want 2", f.Weight())
	}
}

func TestDefaultSizes(t *testing.T) {
	f := mustFormatT(t, "f", []Field{
		basicField("i", Integer),
		basicField("u", Unsigned),
		basicField("fl", Float),
		basicField("c", Char),
		basicField("e", Enum),
		basicField("b", Boolean),
	})
	want := map[string]int{"i": 8, "u": 8, "fl": 8, "c": 1, "e": 4, "b": 1}
	for name, size := range want {
		if got := f.FieldByName(name).Size; got != size {
			t.Errorf("field %q size = %d, want %d", name, got, size)
		}
	}
}

func TestWeight(t *testing.T) {
	contact := mustFormatT(t, "contact", []Field{
		basicField("info", String),
		basicField("id", Integer),
	})
	member := mustFormatT(t, "member", []Field{
		{Name: "contact", Kind: Complex, Sub: contact},
		basicField("isSource", Boolean),
		basicField("isSink", Boolean),
	})
	resp := mustFormatT(t, "resp", []Field{
		basicField("count", Integer),
		{Name: "members", Kind: List, Elem: &Field{Kind: Complex, Sub: member}},
	})
	if got := contact.Weight(); got != 2 {
		t.Errorf("contact weight = %d, want 2", got)
	}
	if got := member.Weight(); got != 4 {
		t.Errorf("member weight = %d, want 4", got)
	}
	if got := resp.Weight(); got != 5 {
		t.Errorf("resp weight = %d, want 5", got)
	}
}

func TestFingerprintStability(t *testing.T) {
	mk := func() *Format {
		return mustFormatT(t, "msg", []Field{
			basicField("load", Integer),
			basicField("mem", Integer),
			basicField("net", Integer),
		})
	}
	a, b := mk(), mk()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical declarations must share a fingerprint")
	}
	if !a.SameStructure(b) {
		t.Fatal("SameStructure must hold for identical declarations")
	}

	variants := []*Format{
		mustFormatT(t, "msg2", []Field{basicField("load", Integer), basicField("mem", Integer), basicField("net", Integer)}),
		mustFormatT(t, "msg", []Field{basicField("load", Integer), basicField("net", Integer), basicField("mem", Integer)}),
		mustFormatT(t, "msg", []Field{basicField("load", Integer), basicField("mem", Integer)}),
		mustFormatT(t, "msg", []Field{basicField("load", Unsigned), basicField("mem", Integer), basicField("net", Integer)}),
		mustFormatT(t, "msg", []Field{{Name: "load", Kind: Integer, Size: 4}, basicField("mem", Integer), basicField("net", Integer)}),
	}
	for i, v := range variants {
		if v.Fingerprint() == a.Fingerprint() {
			t.Errorf("variant %d must not share the base fingerprint", i)
		}
	}
}

func TestLookupAndFields(t *testing.T) {
	f := mustFormatT(t, "f", []Field{basicField("a", Integer), basicField("b", String)})
	if i := f.Lookup("b"); i != 1 {
		t.Errorf("Lookup(b) = %d, want 1", i)
	}
	if i := f.Lookup("zzz"); i != -1 {
		t.Errorf("Lookup(zzz) = %d, want -1", i)
	}
	if fld := f.FieldByName("zzz"); fld != nil {
		t.Errorf("FieldByName(zzz) = %v, want nil", fld)
	}
	fields := f.Fields()
	fields[0].Name = "mutated"
	if f.Field(0).Name != "a" {
		t.Error("Fields() must return a copy; mutation leaked into the format")
	}
}

func TestMustFormatPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFormat must panic on an invalid declaration")
		}
	}()
	MustFormat("", nil)
}

func TestFormatString(t *testing.T) {
	sub := mustFormatT(t, "sub", []Field{basicField("x", Integer)})
	f := mustFormatT(t, "f", []Field{
		basicField("a", String),
		{Name: "s", Kind: Complex, Sub: sub},
		{Name: "l", Kind: List, Elem: &Field{Kind: Integer}},
	})
	s := f.String()
	for _, want := range []string{`format "f"`, "a: string", "s: complex", `format "sub"`, "l: list of"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if Integer.String() != "integer" || List.String() != "list" {
		t.Error("kind names wrong")
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("out-of-range kind String = %q", got)
	}
	if Invalid.IsValid() || !String.IsValid() {
		t.Error("IsValid wrong")
	}
	if Complex.IsBasic() || List.IsBasic() || !Enum.IsBasic() {
		t.Error("IsBasic wrong")
	}
}

// randomFormat draws a format whose field names come from a small pool, so
// that lookups of absent names and (with dups) repeated names both occur.
// depth > 0 lets Complex fields nest a random sub-format.
func randomFormat(rng *rand.Rand, name string, depth int, dups bool) ([]Field, *Format, error) {
	pool := []string{"a", "b", "c", "id", "id2", "ts", "x", "y", "zz", "Z", "member_list", "é"}
	n := rng.Intn(len(pool) + 1)
	fields := make([]Field, 0, n)
	used := map[string]bool{}
	for len(fields) < n {
		nm := pool[rng.Intn(len(pool))]
		if used[nm] && !dups {
			continue
		}
		used[nm] = true
		fld := Field{Name: nm, Kind: []Kind{Integer, Unsigned, Float, String, Boolean}[rng.Intn(5)]}
		if depth > 0 && rng.Intn(4) == 0 {
			_, sub, err := randomFormat(rng, name+"_"+nm, depth-1, false)
			if err == nil && sub.NumFields() > 0 {
				fld = Field{Name: nm, Kind: Complex, Sub: sub}
			}
		}
		fields = append(fields, fld)
	}
	f, err := NewFormat(name, fields)
	return fields, f, err
}

// TestLookupMatchesScan: the hash index answers every name exactly as a
// linear scan of the fields does, at every nesting level, and NewFormat
// refuses a repeated name exactly when the scan finds one, naming the first
// field (by position) that repeats an earlier name.
func TestLookupMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	probes := []string{"", "a", "b", "c", "d", "id", "id2", "id3", "ts", "x", "y", "zz", "Z", "member_list", "é", "\xff"}
	var check func(f *Format)
	check = func(f *Format) {
		for _, p := range probes {
			want := -1
			for i := 0; i < f.NumFields(); i++ {
				if f.Field(i).Name == p {
					want = i
					break
				}
			}
			if got := f.Lookup(p); got != want {
				t.Fatalf("%v\nLookup(%q) = %d, scan says %d", f, p, got, want)
			}
			if fld := f.FieldByName(p); (want < 0) != (fld == nil) || (fld != nil && fld != f.Field(want)) {
				t.Fatalf("%v\nFieldByName(%q) = %p, want field %d", f, p, fld, want)
			}
		}
		for i := 0; i < f.NumFields(); i++ {
			if sub := f.Field(i).Sub; sub != nil {
				check(sub)
			}
		}
	}
	for trial := 0; trial < 2000; trial++ {
		fields, f, err := randomFormat(rng, "r", 2, trial%2 == 1)
		firstDup := ""
		seen := map[string]bool{}
		for _, fld := range fields {
			if seen[fld.Name] {
				firstDup = fld.Name
				break
			}
			seen[fld.Name] = true
		}
		if firstDup != "" {
			want := `duplicate field "` + firstDup + `"`
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("fields %v: err = %v, want %s", fields, err, want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("fields %v: %v", fields, err)
		}
		check(f)
	}

	// Two names whose index hashes collide under this process's seed (a
	// birthday search over ~2^16 names) share a run of equal keys, which
	// Lookup and the duplicate check must both walk.
	byHash := map[uint32]string{}
	var a, b string
	for i := 0; a == ""; i++ {
		nm := fmt.Sprintf("n%d", i)
		if prev, ok := byHash[nameHash(nm)]; ok {
			a, b = prev, nm
		}
		byHash[nameHash(nm)] = nm
	}
	probes = append(probes, a, b)
	for _, order := range [][]string{{a, b}, {b, a}, {"x", b, "y", a}} {
		var fields []Field
		for _, nm := range order {
			fields = append(fields, basicField(nm, Integer))
		}
		check(mustFormatT(t, "collide", fields))
		_, err := NewFormat("collide", append(fields, basicField(order[0], Float)))
		if want := fmt.Sprintf("duplicate field %q", order[0]); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("names %q plus a repeat of the first: err = %v, want %s", order, err, want)
		}
	}
}

// TestIdentical: equal fingerprints make two formats SameStructure, but only
// formats whose encoded descriptions agree byte for byte are Identical, and
// decoding a live format's description returns that format itself. A forced
// fingerprint collision stands in for a real one.
func TestIdentical(t *testing.T) {
	a := mustFormatT(t, "m", []Field{basicField("x", Integer), basicField("y", Float)})
	b := mustFormatT(t, "m", []Field{basicField("x", Integer), basicField("z", String)})
	b.fingerprint = a.fingerprint
	if !a.SameStructure(b) {
		t.Fatal("forced fingerprint collision: SameStructure = false")
	}
	if Identical(a, b) || Identical(b, a) {
		t.Error("formats with different fields are Identical")
	}

	decoded, err := DecodeFormat(EncodeFormat(a))
	if err != nil {
		t.Fatal(err)
	}
	if decoded != a || !Identical(a, a) {
		t.Error("decoding a live format's description did not return the format")
	}

	withDefault := mustFormatT(t, "m", []Field{{Name: "x", Kind: Integer, Default: Int(7)}, basicField("y", Float)})
	if !a.SameStructure(withDefault) || Identical(a, withDefault) {
		t.Error("formats that differ only in a default: want SameStructure and not Identical")
	}
	if Identical(a, nil) || Identical(nil, a) || !Identical(nil, nil) {
		t.Error("Identical with nil")
	}
}
