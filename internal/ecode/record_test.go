package ecode

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
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

// echoFormats builds the paper's Figure 4 formats: ChannelOpenResponse in
// ECho v1.0 (three parallel lists) and v2.0 (one list with booleans).
func echoFormats(t *testing.T) (v1, v2 *pbio.Format) {
	t.Helper()
	entry := fmtOrDie(t, "MemberEntry", []pbio.Field{
		{Name: "info", Kind: pbio.String},
		{Name: "ID", Kind: pbio.Integer, Size: 4},
	})
	memberV2 := fmtOrDie(t, "MemberV2", []pbio.Field{
		{Name: "info", Kind: pbio.String},
		{Name: "ID", Kind: pbio.Integer, Size: 4},
		{Name: "is_Source", Kind: pbio.Boolean},
		{Name: "is_Sink", Kind: pbio.Boolean},
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

// figure5Source is the paper's Figure 5 transformation, verbatim in
// structure: v2.0 ("new") → v1.0 ("old").
const figure5Source = `
int i, sink_count = 0, src_count = 0;
old.member_count = new.member_count;
for (i = 0; i < new.member_count; i++) {
    old.member_list[i].info = new.member_list[i].info;
    old.member_list[i].ID = new.member_list[i].ID;
    if (new.member_list[i].is_Source) {
        old.src_count = src_count + 1;
        old.src_list[src_count].info = new.member_list[i].info;
        old.src_list[src_count].ID = new.member_list[i].ID;
        src_count++;
    }
    if (new.member_list[i].is_Sink) {
        old.sink_count = sink_count + 1;
        old.sink_list[sink_count].info = new.member_list[i].info;
        old.sink_list[sink_count].ID = new.member_list[i].ID;
        sink_count++;
    }
}
`

func v2Record(t *testing.T, v2 *pbio.Format, members []struct {
	info         string
	id           int64
	source, sink bool
}) *pbio.Record {
	t.Helper()
	memberFmt := v2.FieldByName("member_list").Elem.Sub
	elems := make([]pbio.Value, len(members))
	for i, m := range members {
		rec := pbio.NewRecord(memberFmt).
			MustSet("info", pbio.Str(m.info)).
			MustSet("ID", pbio.Int(m.id)).
			MustSet("is_Source", pbio.Bool(m.source)).
			MustSet("is_Sink", pbio.Bool(m.sink))
		elems[i] = pbio.RecordOf(rec)
	}
	return pbio.NewRecord(v2).
		MustSet("member_count", pbio.Int(int64(len(members)))).
		MustSet("member_list", pbio.ListOf(elems))
}

func TestFigure5Transformation(t *testing.T) {
	v1, v2 := echoFormats(t)
	prog, err := Compile(figure5Source,
		Param{Name: "new", Format: v2},
		Param{Name: "old", Format: v1},
	)
	if err != nil {
		t.Fatalf("Compile(figure 5): %v", err)
	}

	in := v2Record(t, v2, []struct {
		info         string
		id           int64
		source, sink bool
	}{
		{"tcp:n1:4000", 7, true, false},
		{"tcp:n2:4001", 7, false, true},
		{"tcp:n3:4002", 7, true, true},
		{"tcp:n4:4003", 7, false, false},
	})
	out := pbio.NewRecord(v1)
	if _, err := prog.Run(in, out); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if got, _ := out.Get("member_count"); got.Int64() != 4 {
		t.Errorf("member_count = %d, want 4", got.Int64())
	}
	if got, _ := out.Get("src_count"); got.Int64() != 2 {
		t.Errorf("src_count = %d, want 2", got.Int64())
	}
	if got, _ := out.Get("sink_count"); got.Int64() != 2 {
		t.Errorf("sink_count = %d, want 2", got.Int64())
	}
	ml, _ := out.Get("member_list")
	if ml.Len() != 4 {
		t.Fatalf("member_list len = %d, want 4", ml.Len())
	}
	for i, want := range []string{"tcp:n1:4000", "tcp:n2:4001", "tcp:n3:4002", "tcp:n4:4003"} {
		if got := ml.List()[i].Record().GetIndex(0).Strval(); got != want {
			t.Errorf("member_list[%d].info = %q, want %q", i, got, want)
		}
	}
	sl, _ := out.Get("src_list")
	if sl.Len() != 2 {
		t.Fatalf("src_list len = %d, want 2", sl.Len())
	}
	if got := sl.List()[0].Record().GetIndex(0).Strval(); got != "tcp:n1:4000" {
		t.Errorf("src_list[0].info = %q", got)
	}
	if got := sl.List()[1].Record().GetIndex(0).Strval(); got != "tcp:n3:4002" {
		t.Errorf("src_list[1].info = %q", got)
	}
	kl, _ := out.Get("sink_list")
	if kl.Len() != 2 {
		t.Fatalf("sink_list len = %d, want 2", kl.Len())
	}
	if got := kl.List()[0].Record().GetIndex(0).Strval(); got != "tcp:n2:4001" {
		t.Errorf("sink_list[0].info = %q", got)
	}

	// The transform must not alias source data into the destination: mutate
	// the input afterwards and re-check one output string.
	inML, _ := in.Get("member_list")
	inML.List()[0].Record().MustSet("info", pbio.Str("clobbered"))
	ml, _ = out.Get("member_list")
	if got := ml.List()[0].Record().GetIndex(0).Strval(); got != "tcp:n1:4000" {
		t.Errorf("output aliased input storage: member_list[0].info = %q", got)
	}
}

func TestFigure5EmptyMembership(t *testing.T) {
	v1, v2 := echoFormats(t)
	prog := MustCompile(figure5Source,
		Param{Name: "new", Format: v2}, Param{Name: "old", Format: v1})
	out := pbio.NewRecord(v1)
	if _, err := prog.Run(pbio.NewRecord(v2), out); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"member_count", "src_count", "sink_count"} {
		if v, _ := out.Get(f); v.Int64() != 0 {
			t.Errorf("%s = %d, want 0", f, v.Int64())
		}
	}
}

// TestFigure5RunAllocs gates the Figure 5 run on a 28-member roster (half
// sources, half sinks; the output record included) by allocation count: the
// run's frame holds its locals and path bindings, and the three lists it
// grows take their elements from the run's slab. Each run, the first
// included, starts those lists with room for the input's 28 members,
// arrays and elements carved from one chunk of records and one of values:
// 5 allocations with the frame and the output record's two. A program
// that grows no list must not pay for the slab.
func TestFigure5RunAllocs(t *testing.T) {
	v1, v2 := echoFormats(t)
	prog := MustCompile(figure5Source, Param{Name: "new", Format: v2}, Param{Name: "old", Format: v1})
	members := make([]struct {
		info         string
		id           int64
		source, sink bool
	}, 28)
	for i := range members {
		members[i].info = fmt.Sprintf("tcp://node-%05d.rack-%02d:%05d", i*7919, i, i*31)
		members[i].id = int64(i)
		members[i].source, members[i].sink = i%2 == 0, i%4 < 2
	}
	in := v2Record(t, v2, members)
	var out *pbio.Record
	run := func() {
		out = pbio.NewRecord(v1)
		if _, err := prog.Run(in, out); err != nil {
			t.Fatal(err)
		}
	}
	if first, _ := memOfOne(run); first > 5 {
		t.Errorf("Figure 5 on 28 members, first run: %v allocs, want <= 5", first)
	}
	allocs := testing.AllocsPerRun(100, run)
	if got, _ := out.Get("sink_list"); got.Len() != 14 {
		t.Fatalf("sink_list has %d entries, want 14", got.Len())
	}
	if allocs > 5 {
		t.Errorf("Figure 5 on 28 members, warm: %v allocs per run, want <= 5", allocs)
	}

	scalar := fmtOrDie(t, "s", []pbio.Field{{Name: "a", Kind: pbio.Integer, Size: 4}, {Name: "b", Kind: pbio.Float, Size: 8}})
	sp := MustCompile("dst.a = src.a + 1; dst.b = src.b * 2.0;", Param{Name: "src", Format: scalar}, Param{Name: "dst", Format: scalar})
	src, dst := pbio.NewRecord(scalar), pbio.NewRecord(scalar)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := sp.Run(src, dst); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("scalar program: %v allocs per run, want <= 2 (frame and run state)", allocs)
	}
}

// memOfOne counts the allocations and bytes of one call of fn, measured as
// testing.AllocsPerRun measures, but without its warm-up call.
func memOfOne(fn func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

func TestFieldReadWrite(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{
		{Name: "a", Kind: pbio.Integer},
		{Name: "x", Kind: pbio.Float},
		{Name: "s", Kind: pbio.String},
		{Name: "b", Kind: pbio.Boolean},
	})
	prog := MustCompile(`
		dst.a = src.a * 2;
		dst.x = src.x + 0.5;
		dst.s = src.s + "!";
		dst.b = !src.b;
	`, Param{Name: "src", Format: f}, Param{Name: "dst", Format: f})

	src := pbio.NewRecord(f).
		MustSet("a", pbio.Int(21)).
		MustSet("x", pbio.Float64(1.25)).
		MustSet("s", pbio.Str("hey")).
		MustSet("b", pbio.Bool(false))
	dst := pbio.NewRecord(f)
	if _, err := prog.Run(src, dst); err != nil {
		t.Fatal(err)
	}
	if v, _ := dst.Get("a"); v.Int64() != 42 {
		t.Errorf("a = %d", v.Int64())
	}
	if v, _ := dst.Get("x"); v.Float64() != 1.75 {
		t.Errorf("x = %g", v.Float64())
	}
	if v, _ := dst.Get("s"); v.Strval() != "hey!" {
		t.Errorf("s = %q", v.Strval())
	}
	if v, _ := dst.Get("b"); !v.Bool() {
		t.Errorf("b = %v", v)
	}
}

func TestIntFieldStoreFromFloat(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{{Name: "a", Kind: pbio.Integer}})
	prog := MustCompile("dst.a = 7.9;", Param{Name: "dst", Format: f})
	dst := pbio.NewRecord(f)
	if _, err := prog.Run(dst); err != nil {
		t.Fatal(err)
	}
	if v, _ := dst.Get("a"); v.Int64() != 7 {
		t.Errorf("a = %d, want 7 (C truncation)", v.Int64())
	}
}

func TestListGrowSemantics(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{
		{Name: "n", Kind: pbio.Integer},
		{Name: "nums", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer}},
	})
	prog := MustCompile(`
		int i;
		for (i = 0; i < 5; i++) dst.nums[i] = i * i;
		dst.n = 5;
		dst.nums[7] = 99;
	`, Param{Name: "dst", Format: f})
	dst := pbio.NewRecord(f)
	if _, err := prog.Run(dst); err != nil {
		t.Fatal(err)
	}
	nums, _ := dst.Get("nums")
	if nums.Len() != 8 {
		t.Fatalf("nums len = %d, want 8 (grown through gap)", nums.Len())
	}
	for i, want := range []int64{0, 1, 4, 9, 16, 0, 0, 99} {
		if got := nums.List()[i].Int64(); got != want {
			t.Errorf("nums[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestListReadOutOfRange(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{
		{Name: "nums", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer}},
	})
	prog := MustCompile("return src.nums[3];", Param{Name: "src", Format: f})
	_, err := prog.Run(pbio.NewRecord(f))
	if !errors.Is(err, ErrRuntime) || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v, want out-of-range runtime error", err)
	}
}

func TestWholeRecordAssignClones(t *testing.T) {
	inner := fmtOrDie(t, "inner", []pbio.Field{{Name: "x", Kind: pbio.Integer}})
	f := fmtOrDie(t, "m", []pbio.Field{
		{Name: "rec", Kind: pbio.Complex, Sub: inner},
		{Name: "list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer}},
	})
	prog := MustCompile(`
		dst.rec = src.rec;
		dst.list = src.list;
	`, Param{Name: "src", Format: f}, Param{Name: "dst", Format: f})

	src := pbio.NewRecord(f)
	srcRec, _ := src.Get("rec")
	srcRec.Record().MustSet("x", pbio.Int(5))
	src.MustSet("list", pbio.ListOf([]pbio.Value{pbio.Int(1), pbio.Int(2)}))
	dst := pbio.NewRecord(f)
	if _, err := prog.Run(src, dst); err != nil {
		t.Fatal(err)
	}
	// Mutate src; dst must be isolated.
	srcRec.Record().MustSet("x", pbio.Int(100))
	dstRec, _ := dst.Get("rec")
	if dstRec.Record().GetIndex(0).Int64() != 5 {
		t.Error("whole-record assign aliased the source record")
	}
	dstList, _ := dst.Get("list")
	if dstList.Len() != 2 || dstList.List()[1].Int64() != 2 {
		t.Errorf("list copy wrong: %v", dstList)
	}
}

func TestDeepPathNavigation(t *testing.T) {
	leaf := fmtOrDie(t, "leaf", []pbio.Field{{Name: "v", Kind: pbio.Integer}})
	mid := fmtOrDie(t, "mid", []pbio.Field{
		{Name: "leaves", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: leaf}},
	})
	root := fmtOrDie(t, "root", []pbio.Field{
		{Name: "mid", Kind: pbio.Complex, Sub: mid},
	})
	prog := MustCompile(`
		dst.mid.leaves[2].v = 42;
		return src.mid.leaves[0].v + 1;
	`, Param{Name: "src", Format: root}, Param{Name: "dst", Format: root})

	src := pbio.NewRecord(root)
	srcMid, _ := src.Get("mid")
	if _, err := srcMid.Record().GrowList(0, 1); err != nil {
		t.Fatal(err)
	}
	dst := pbio.NewRecord(root)
	v, err := prog.Run(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int64() != 1 {
		t.Errorf("returned %d, want 1", v.Int64())
	}
	dstMid, _ := dst.Get("mid")
	leaves := dstMid.Record().GetIndex(0)
	if leaves.Len() != 3 || leaves.List()[2].Record().GetIndex(0).Int64() != 42 {
		t.Errorf("deep write failed: %v", leaves)
	}
}

func TestRecordCompileErrors(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{
		{Name: "a", Kind: pbio.Integer},
		{Name: "s", Kind: pbio.String},
		{Name: "l", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer}},
	})
	other := fmtOrDie(t, "o", []pbio.Field{{Name: "a", Kind: pbio.Float}})
	params := []Param{{Name: "src", Format: f}, {Name: "dst", Format: f}, {Name: "oth", Format: other}}

	tests := []struct {
		name string
		src  string
		msg  string
	}{
		{"unknown field read", "return src.nope;", `no field "nope"`},
		{"unknown field write", "dst.nope = 1;", `no field "nope"`},
		{"field of scalar", "return src.a.b;", "has no fields"},
		{"subscript non-list", "return src.a[0];", "not subscriptable"},
		{"string index", "dst.s[0] = 65;", "not a list"},
		{"float index", "return src.l[1.5];", "must be an int"},
		{"assign record to int", "dst.a = src;", "cannot assign"},
		{"assign list to scalar field", "dst.a = src.l;", "cannot assign"},
		{"assign across formats", "dst.a = oth.a; dst.a = oth;", "cannot assign"},
		{"reassign param", "src = dst;", "cannot reassign record parameter"},
		{"record as condition", "if (src) dst.a = 1;", "cannot be used as a condition"},
		{"record arithmetic", "return src + dst;", "invalid operands"},
		{"param shadow", "int src;", "shadows a record parameter"},
		{"scalar local as record", "int v; v.a = 1;", "scalar local"},
		{"subscript param", "src[0].a = 1;", "cannot subscript a record parameter"},
		{"double subscript", "dst.l[0][1] = 1;", "multiple subscripts"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Compile(tt.src, params...)
			if err == nil {
				t.Fatalf("Compile(%q) succeeded", tt.src)
			}
			if !errors.Is(err, ErrCompile) {
				t.Errorf("err = %v, want wrapped ErrCompile", err)
			}
			if !strings.Contains(err.Error(), tt.msg) {
				t.Errorf("err %q missing %q", err, tt.msg)
			}
		})
	}
}

func TestRunArgValidation(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{{Name: "a", Kind: pbio.Integer}})
	g := fmtOrDie(t, "g", []pbio.Field{{Name: "a", Kind: pbio.Integer}})
	prog := MustCompile("dst.a = 1;", Param{Name: "dst", Format: f})

	if _, err := prog.Run(); !errors.Is(err, ErrArgs) {
		t.Errorf("missing args: err = %v", err)
	}
	if _, err := prog.Run(pbio.NewRecord(g)); !errors.Is(err, ErrArgs) {
		t.Errorf("wrong format: err = %v", err)
	}
	if _, err := prog.Run(nil); !errors.Is(err, ErrArgs) {
		t.Errorf("nil record: err = %v", err)
	}
	if _, err := Compile("x;", Param{Name: "", Format: f}); !errors.Is(err, ErrCompile) {
		t.Errorf("unnamed param: err = %v", err)
	}
	if _, err := Compile("x;", Param{Name: "a", Format: f}, Param{Name: "a", Format: f}); !errors.Is(err, ErrCompile) {
		t.Errorf("duplicate param: err = %v", err)
	}
}

func TestProgramAccessors(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{{Name: "a", Kind: pbio.Integer}})
	src := "dst.a = 2;"
	prog := MustCompile(src, Param{Name: "dst", Format: f})
	if prog.Source() != src {
		t.Errorf("Source = %q", prog.Source())
	}
	if len(prog.Params()) != 1 || prog.Params()[0].Name != "dst" {
		t.Errorf("Params = %v", prog.Params())
	}
}

func TestProgramConcurrentRuns(t *testing.T) {
	v1, v2 := echoFormats(t)
	prog := MustCompile(figure5Source,
		Param{Name: "new", Format: v2}, Param{Name: "old", Format: v1})

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				in := v2Record(t, v2, []struct {
					info         string
					id           int64
					source, sink bool
				}{{info: "x", id: int64(n), source: true, sink: false}})
				out := pbio.NewRecord(v1)
				if _, err := prog.Run(in, out); err != nil {
					errs <- err
					return
				}
				if v, _ := out.Get("src_count"); v.Int64() != 1 {
					errs <- errors.New("cross-goroutine state leak")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile must panic on bad source")
		}
	}()
	MustCompile("not valid @")
}
