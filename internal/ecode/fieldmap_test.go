package ecode

import (
	"errors"
	"strings"
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

// TestFieldMapLoop: Figure 5, after folding, is one flat move and a loop
// that builds three lists from the members — every one, the sources and
// the sinks, each counted — and the map's overrun is the error the run
// fails with when the count is past the list's end. Programs of almost
// that shape have no map, and a program whose map has a loop is compiled
// at once.
func TestFieldMapLoop(t *testing.T) {
	v1, v2 := echoFormats(t)
	params := []Param{{Name: "new", Format: v2}, {Name: "old", Format: v1}}
	prog := MustCompile(figure5Source, params...)
	moves, ok := prog.FieldMap()
	if !ok || len(moves) != 4 {
		t.Fatalf("Figure 5: FieldMap = %+v, %v; want a move and three lists", moves, ok)
	}
	elem := []FieldMove{{Dst: 0, Src: 0}, {Dst: 1, Src: 1}} // info, ID
	for i, want := range []struct {
		dst          int
		guard, count int
	}{{1, pbio.NoSource, pbio.NoSource}, {3, 2, 2}, {5, 3, 4}} {
		mv := moves[1+i]
		if mv.Dst != want.dst || mv.Src != 1 || mv.Each == nil || mv.Each.Bound != 0 ||
			mv.Each.Guard != want.guard || mv.Each.Count != want.count || len(mv.Elem) != 2 ||
			mv.Elem[0].Dst != elem[0].Dst || mv.Elem[0].Src != elem[0].Src || mv.Elem[1].Dst != elem[1].Dst || mv.Elem[1].Src != elem[1].Src {
			t.Errorf("list move %d = %+v (Each %+v), want list %d guarded by %d, counted in %d", i, mv, mv.Each, want.dst, want.guard, want.count)
		}
	}
	if mv := moves[0]; mv.Dst != 0 || mv.Src != 0 || mv.Each != nil {
		t.Errorf("flat move = %+v, want member_count", mv)
	}
	in := pbio.NewRecord(v2).MustSet("member_count", pbio.Int(2))
	_, err := prog.Run(in, pbio.NewRecord(v1))
	if want := moves[1].Each.Overrun(0); !errors.Is(err, ErrRuntime) || err.Error() != want.Error() {
		t.Fatalf("Run with a count past the list: %v; the map's overrun is %v", err, want)
	}
	if prog.lazy || prog.main == nil {
		t.Error("a program whose map loops was not compiled at once")
	}

	for name, src := range map[string]string{
		"guard on an int":       strings.Replace(figure5Source, "new.member_list[i].is_Source)", "new.member_list[i].ID)", 1),
		"counter stepped twice": strings.Replace(figure5Source, "sink_count++;", "sink_count++; sink_count++;", 1),
		"counter shared":        strings.NewReplacer("sink_count + 1", "src_count + 1", "sink_list[sink_count]", "sink_list[src_count]", "sink_count++", "src_count++").Replace(figure5Source),
		"counter not zero":      strings.Replace(figure5Source, "src_count = 0", "src_count = 1", 1),
		"store read back":       strings.Replace(figure5Source, "= new.member_list[i].ID;\n    if", "= old.member_list[i].ID;\n    if", 1),
		"bound computed":        strings.Replace(figure5Source, "i < new.member_count", "i < new.member_count - 1", 1),
		"bound a call":          strings.Replace(figure5Source, "i < new.member_count", "i < len(new.member_list)", 1),
		"bound inclusive":       strings.Replace(figure5Source, "i < new.member_count", "i <= new.member_count", 1),
		"index from one":        strings.Replace(figure5Source, "for (i = 0;", "for (i = 1;", 1),
		"two loops":             figure5Source + "for (i = 0; i < new.member_count; i++) { old.member_list[i].ID = new.member_list[i].ID; }",
		"nested loop":           strings.Replace(figure5Source, "old.member_list[i].ID = new.member_list[i].ID;", "for (j = 0; j < new.member_count; j++) { old.member_list[i].ID = new.member_list[i].ID; }", 1),
		"guarded else":          strings.Replace(figure5Source, "sink_count++;\n    }", "sink_count++;\n    } else { old.member_list[i].ID = new.member_list[i].ID; }", 1),
		"append at i":           strings.Replace(figure5Source, "old.src_list[src_count].info", "old.src_list[i].info", 1),
		"count off by two":      strings.Replace(figure5Source, "src_count + 1", "src_count + 2", 1),
		"count twice":           strings.Replace(figure5Source, "old.sink_count = sink_count + 1;", "old.src_count = sink_count + 1;", 1),
		"field written twice":   figure5Source + "old.member_count = 1;",
		"double local":          strings.Replace(figure5Source, "int i,", "double d = 0; int i,", 1),
		"local from a field":    strings.Replace(figure5Source, "src_count = 0", "src_count = new.member_count", 1),
		"declares, no loop":     "int k = 0; old.member_count = new.member_count;",
	} {
		if strings.Contains(name, "nested") {
			src = strings.Replace(src, "int i,", "int j, i,", 1)
		}
		if p, err := Compile(src, params...); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if moves, ok := p.FieldMap(); ok {
			t.Errorf("%s: FieldMap = %+v, want none", name, moves)
		}
	}
}
