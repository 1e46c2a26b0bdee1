package ecode

import (
	"fmt"
	"testing"

	"repro/internal/pbio"
)

// clobber overwrites every value of rec in place: each scalar field, and
// through them each nested record and each list element, so that any
// record or list memory a run's output shared with rec would change.
func clobber(rec *pbio.Record) {
	f := rec.Format()
	for i := range f.NumFields() {
		fld, v := f.Field(i), rec.GetIndex(i)
		switch fld.Kind {
		case pbio.Complex:
			if r := v.Record(); r != nil {
				clobber(r)
			}
		case pbio.List:
			clobberList(fld.Elem, v.List())
		default:
			if err := rec.SetIndex(i, clobbered(fld)); err != nil {
				panic(err)
			}
		}
	}
}

// clobberList overwrites every element of list, a list of elem, in place.
func clobberList(elem *pbio.Field, list []pbio.Value) {
	for j, e := range list {
		if elem.Kind == pbio.Complex {
			clobber(e.Record())
		} else {
			list[j] = clobbered(elem)
		}
	}
}

// clobbered is a value of a basic field no test input holds.
func clobbered(fld *pbio.Field) pbio.Value {
	switch fld.Kind {
	case pbio.String:
		return pbio.Str("clobbered")
	case pbio.Float:
		return pbio.Float64(-0.25)
	default:
		return pbio.Int(-99)
	}
}

// TestRunOutputSharesNothingWithInput: what a run stores shares no record
// or list memory with the records it read (Program.Run), so overwriting
// every value of the input afterwards leaves the output as it was. This is
// what lets the morphing engine decode a transform's input into memory it
// reuses. It covers Figure 5's field-by-field copies, whole-record and
// whole-list stores, a list element stored whole, and the same stores made
// inside a user function (which cannot return a record: its declared types
// are void, int, double and string).
func TestRunOutputSharesNothingWithInput(t *testing.T) {
	v1, v2 := echoFormats(t)
	members := make([]struct {
		info         string
		id           int64
		source, sink bool
	}, 12)
	for i := range members {
		members[i].info = fmt.Sprintf("tcp:n%d:%d", i, 4000+i)
		members[i].id = int64(i)
		members[i].source, members[i].sink = i%3 == 0, i%2 == 0
	}

	leaf := fmtOrDie(t, "leaf", []pbio.Field{
		{Name: "s", Kind: pbio.String},
		{Name: "ns", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer}},
	})
	inner := fmtOrDie(t, "inner", []pbio.Field{
		{Name: "x", Kind: pbio.Float, Size: 8},
		{Name: "leaf", Kind: pbio.Complex, Sub: leaf},
		{Name: "leaves", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: leaf}},
	})
	whole := fmtOrDie(t, "whole", []pbio.Field{
		{Name: "r", Kind: pbio.Complex, Sub: inner},
		{Name: "l", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: inner}},
	})
	newLeaf := func(s string, ns ...int64) pbio.Value {
		l := make([]pbio.Value, len(ns))
		for i, n := range ns {
			l[i] = pbio.Int(n)
		}
		return pbio.RecordOf(pbio.NewRecord(leaf).MustSet("s", pbio.Str(s)).MustSet("ns", pbio.ListOf(l)))
	}
	newInner := func(x float64) pbio.Value {
		return pbio.RecordOf(pbio.NewRecord(inner).
			MustSet("x", pbio.Float64(x)).
			MustSet("leaf", newLeaf(fmt.Sprint("leaf", x), 1, 2, 3)).
			MustSet("leaves", pbio.ListOf([]pbio.Value{newLeaf("a", 4), newLeaf("b", 5, 6)})))
	}
	wholeInput := func() *pbio.Record {
		return pbio.NewRecord(whole).
			MustSet("r", newInner(1.5)).
			MustSet("l", pbio.ListOf([]pbio.Value{newInner(2.5), newInner(3.5)}))
	}

	for _, tc := range []struct {
		name     string
		src      string
		from, to *pbio.Format
		in       func() *pbio.Record
	}{
		{"Figure 5", figure5Source, v2, v1, func() *pbio.Record { return v2Record(t, v2, members) }},
		{"whole-record and whole-list stores", "old.r = new.r; old.l = new.l;",
			whole, whole, wholeInput},
		{"list elements stored whole", "old.l[0] = new.l[1]; old.l[1] = new.r; old.r.leaves[0] = new.l[0].leaf;",
			whole, whole, wholeInput},
		{"stores made in a user function", `
			void keep(int i) { old.r = new.l[i]; old.l = new.l; old.l[i].leaf = new.r.leaf; }
			keep(1);`,
			whole, whole, wholeInput},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := MustCompile(tc.src, Param{Name: "new", Format: tc.from}, Param{Name: "old", Format: tc.to})
			in, out := tc.in(), pbio.NewRecord(tc.to)
			if _, err := prog.Run(in, out); err != nil {
				t.Fatal(err)
			}
			want, before := out.Clone(), in.Clone()
			clobber(in)
			if in.Equal(before) {
				t.Fatal("clobber left the input as it was")
			}
			if !out.Equal(want) {
				t.Fatalf("the output changed with its input:\n got %v\nwant %v", out, want)
			}
		})
	}
}

// TestListRoom: a run starts each nil list it grows with room for as many
// elements as its records' lists hold. That changes how much the run
// allocates, never what it builds, which lists stay nil, or where it runs
// out of steps; and the room is sized from this run alone, within its step
// budget. The reference is the same run with the output's lists already
// empty and not nil, which gets no room and grows them as a run always did.
func TestListRoom(t *testing.T) {
	v1, v2 := echoFormats(t)
	roster := func(n int) *pbio.Record {
		members := make([]struct {
			info         string
			id           int64
			source, sink bool
		}, n)
		for i := range members {
			members[i].info = fmt.Sprintf("tcp:n%d", i)
			members[i].id = int64(i)
			members[i].source, members[i].sink = i%2 == 0, i%4 < 2
		}
		return v2Record(t, v2, members)
	}
	lists := []string{"member_list", "src_list", "sink_list"}
	noRoom := func() *pbio.Record {
		out := pbio.NewRecord(v1)
		for _, name := range lists {
			out.MustSet(name, pbio.ListOf([]pbio.Value{}))
		}
		return out
	}
	figure5 := func(maxSteps int) *Program {
		p := MustCompile(figure5Source, Param{Name: "new", Format: v2}, Param{Name: "old", Format: v1})
		p.MaxSteps = maxSteps
		return p
	}
	prog := figure5(0)
	run := func(in, out *pbio.Record) *pbio.Record {
		t.Helper()
		if _, err := prog.Run(in, out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	for _, n := range []int{40, 3, 28, 29, 0, 1, 0} {
		in := roster(n)
		got, want := run(in, pbio.NewRecord(v1)), run(in, noRoom())
		if !got.Equal(want) {
			t.Fatalf("%d members:\n got %v\nwant %v", n, got, want)
		}
		for _, name := range lists {
			g, _ := got.Get(name)
			w, _ := want.Get(name)
			if g.Len() != w.Len() || (g.List() == nil) != (w.Len() == 0) {
				t.Errorf("%d members: %s has %d elements (nil %v), want %d", n, name, g.Len(), g.List() == nil, w.Len())
			}
			if cap(g.List()) > n {
				t.Errorf("%d members: %s has room for %d elements", n, name, cap(g.List()))
			}
		}
	}

	// Only a nil list gets room: an output's own empty list is left as it
	// is when the run adds nothing to it.
	own := pbio.NewRecord(v1).MustSet("src_list", pbio.ListOf(make([]pbio.Value, 0, 2)))
	run(roster(0), own)
	if v, _ := own.Get("src_list"); v.List() == nil || cap(v.List()) != 2 {
		t.Errorf("an empty list the run left alone became %v (cap %d)", v, cap(v.List()))
	}

	// A list the run replaces whole, here with an empty one, stays as the
	// run stored it, even though it got room and grows by subscript only
	// when the guard holds.
	leaf := fmtOrDie(t, "leaf", []pbio.Field{{Name: "s", Kind: pbio.String}})
	box := fmtOrDie(t, "box", []pbio.Field{
		{Name: "n", Kind: pbio.Integer},
		{Name: "l", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: leaf}},
		{Name: "m", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer}},
	})
	replaces := MustCompile(`old.l = new.l; if (new.n > 0) { old.l[0].s = "x"; }`,
		Param{Name: "new", Format: box}, Param{Name: "old", Format: box})
	in := pbio.NewRecord(box).
		MustSet("l", pbio.ListOf([]pbio.Value{})).
		MustSet("m", pbio.ListOf([]pbio.Value{pbio.Int(1), pbio.Int(2), pbio.Int(3)}))
	out := pbio.NewRecord(box)
	if _, err := replaces.Run(in, out); err != nil {
		t.Fatal(err)
	}
	if v, _ := out.Get("l"); v.List() == nil || v.Len() != 0 {
		t.Errorf("a list replaced by an empty one became %v (nil %v)", v, v.List() == nil)
	}

	// A list that outgrows its room keeps growing past it.
	outgrows := MustCompile(`int i; for (i = 0; i < 5; i++) { old.m[i] = i; }`,
		Param{Name: "new", Format: box}, Param{Name: "old", Format: box})
	out = pbio.NewRecord(box)
	if _, err := outgrows.Run(pbio.NewRecord(box).MustSet("m", pbio.ListOf([]pbio.Value{pbio.Int(7)})), out); err != nil {
		t.Fatal(err)
	}
	want := pbio.NewRecord(box).MustSet("m", pbio.ListOf([]pbio.Value{pbio.Int(0), pbio.Int(1), pbio.Int(2), pbio.Int(3), pbio.Int(4)}))
	if !out.Equal(want) {
		t.Errorf("a list grown past its room of 1: %v, want %v", out, want)
	}

	// The room is this run's: a short roster after a long one allocates
	// what it does on a fresh program, and a tight step budget bounds it
	// however long the input is.
	short, first := roster(1), figure5(0)
	_, fresh := memOfOne(func() { first.Run(short, pbio.NewRecord(v1)) })
	run(roster(1000), pbio.NewRecord(v1))
	if _, after := memOfOne(func() { prog.Run(short, pbio.NewRecord(v1)) }); after > fresh {
		t.Errorf("1 member after 1000: %d bytes, %d on a fresh program", after, fresh)
	}
	tight, long := figure5(30), roster(1000)
	if _, b := memOfOne(func() { tight.Run(long, pbio.NewRecord(v1)) }); b > 8<<10 {
		t.Errorf("1000 members, 30 steps: %d bytes", b)
	}

	// The step budget: the run needs some number of steps for 20 members;
	// one step short of that it fails in the same place, with the same
	// partial output, with room and without.
	need := 1
	for hi := 1 << 20; need < hi; {
		mid := (need + hi) / 2
		if _, err := figure5(mid).Run(roster(20), pbio.NewRecord(v1)); err != nil {
			need = mid + 1
		} else {
			hi = mid
		}
	}
	for _, limit := range []int{need - 1, need} {
		p := figure5(limit)
		gotOut, wantOut := pbio.NewRecord(v1), noRoom()
		_, gotErr := p.Run(roster(20), gotOut)
		_, wantErr := p.Run(roster(20), wantOut)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (limit == need) != (gotErr == nil) {
			t.Errorf("limit %d (%d needed): error %v with room, %v without", limit, need, gotErr, wantErr)
		}
		if !gotOut.Equal(wantOut) {
			t.Errorf("limit %d: output %v with room, %v without", limit, gotOut, wantOut)
		}
	}
}
