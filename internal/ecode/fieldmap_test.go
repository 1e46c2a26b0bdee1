package ecode

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/pbio"
)

// TestFieldMap: a flat list of field moves and literal stores exposes its
// field map, by field index and in source order; a program that does
// anything more has none.
func TestFieldMap(t *testing.T) {
	src := fmtOrDie(t, "m", []pbio.Field{
		{Name: "x", Kind: pbio.Integer, Size: 4},
		{Name: "name", Kind: pbio.String},
		{Name: "list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer, Size: 4}},
	})
	dst := fmtOrDie(t, "m", []pbio.Field{
		{Name: "label", Kind: pbio.String},
		{Name: "y", Kind: pbio.Float, Size: 8},
		{Name: "z", Kind: pbio.Unsigned, Size: 2},
		{Name: "list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer, Size: 4}},
	})
	params := []Param{{Name: "new", Format: src}, {Name: "old", Format: dst}}

	prog := MustCompile(`old.y = new.x; old.z = -(2 * 3); old.label = new.name;`, params...)
	moves, ok := prog.FieldMap()
	want := []FieldMove{{Dst: 1, Src: 0}, {Dst: 2, Src: -1, Const: pbio.Int(-6)}, {Dst: 0, Src: 1}}
	if !ok || len(moves) != len(want) {
		t.Fatalf("FieldMap = %v, %v; want %v", moves, ok, want)
	}
	for i, mv := range moves {
		if mv.Dst != want[i].Dst || mv.Src != want[i].Src || !mv.Const.Equal(want[i].Const) {
			t.Errorf("move %d = %+v, want %+v", i, mv, want[i])
		}
	}
	if moves, ok := MustCompile(``, params...).FieldMap(); !ok || len(moves) != 0 {
		t.Errorf("empty program: FieldMap = %v, %v; want no moves", moves, ok)
	}

	for _, src := range []string{
		`old.y = old.z;`,                    // reads the destination
		`old.y = new.x; old.y = 1;`,         // writes a field twice
		`new.x = 1;`,                        // writes the source
		`old.y = new.x + 0;`,                // computes
		`old.z = 1 / 0;`,                    // fails when it runs
		`old.y += new.x;`,                   // reads the destination
		`old.list = new.list;`,              // stores a list
		`old.list[0] = new.x;`,              // stores an element
		`int k = 3; old.y = k;`,             // declares
		`if (new.x) old.y = new.x;`,         // branches
		`{ old.y = new.x; }`,                // nests
		`old.label = strcat(new.name, "");`, // calls
	} {
		if moves, ok := MustCompile(src, params...).FieldMap(); ok {
			t.Errorf("%s: FieldMap = %v, want none", src, moves)
		}
	}
	one := MustCompile(`old.y = 1;`, Param{Name: "old", Format: dst})
	if _, ok := one.FieldMap(); ok {
		t.Error("a one-parameter program has no field map")
	}
}

// TestFieldMapOnlyForProgramsThatCompile: a program shaped like a list of
// field moves but naming a missing field, storing across the number/string
// divide or storing an operation over literals that does not type-check is
// a compile error, not a field map; and a mapped program runs, its closures
// built on first use even when several goroutines race to it.
func TestFieldMapOnlyForProgramsThatCompile(t *testing.T) {
	src := fmtOrDie(t, "m", []pbio.Field{{Name: "x", Kind: pbio.Integer, Size: 4}, {Name: "name", Kind: pbio.String}})
	dst := fmtOrDie(t, "m", []pbio.Field{{Name: "label", Kind: pbio.String}, {Name: "y", Kind: pbio.Float, Size: 8},
		{Name: "list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer, Size: 4}}})
	params := []Param{{Name: "new", Format: src}, {Name: "old", Format: dst}}
	for _, code := range []string{
		`old.label = new.x;`, `old.y = new.name;`, `old.y = "s";`, `old.label = 3;`, `old.list = 3;`,
		`old.nofield = new.x;`, `old.y = new.nofield;`, `old.y = other.x;`, `old.label = 1 ? "a" : 2;`,
	} {
		if _, err := Compile(code, params...); !errors.Is(err, ErrCompile) {
			t.Errorf("%s: Compile error %v, want ErrCompile", code, err)
		}
	}

	prog := MustCompile(`old.y = new.x; old.label = new.name;`, params...)
	if _, ok := prog.FieldMap(); !ok {
		t.Fatal("no field map")
	}
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := pbio.NewRecord(src).MustSet("x", pbio.Int(int64(i))).MustSet("name", pbio.Str("n"))
			out := pbio.NewRecord(dst)
			if _, err := prog.Run(in, out); err != nil {
				t.Error(err)
			} else if y, _ := out.Get("y"); y.Float64() != float64(i) {
				t.Errorf("y = %v, want %d", y, i)
			}
		}()
	}
	wg.Wait()
}
