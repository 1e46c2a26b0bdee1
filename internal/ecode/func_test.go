package ecode

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/pbio"
)

func TestUserFunctions(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want int64
	}{
		{"simple", "int double_it(int x) { return x * 2; } return double_it(21);", 42},
		{"two args", "int add(int a, int b) { return a + b; } return add(40, 2);", 42},
		{"forward reference", "return later(6); int later(int x) { return x * 7; }", 42},
		{"nested calls", `
			int inc(int x) { return x + 1; }
			int twice(int x) { return inc(inc(x)); }
			return twice(40);`, 42},
		{"recursion factorial", `
			int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
			return fact(5);`, 120},
		{"mutual recursion", `
			int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
			int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
			return is_even(10);`, 1},
		{"locals are private", `
			int f(int a) { int x = 100; return a + x; }
			int x = 1;
			return f(2) + x;`, 103},
		{"fall off end returns zero", "int f(int a) { a = a + 1; } return f(1) + 9;", 9},
		{"int arg from float", "int f(int x) { return x; } return f(3.9);", 3},
		{"function with loop", `
			int sum_to(int n) { int i, s = 0; for (i = 1; i <= n; i++) s += i; return s; }
			return sum_to(10);`, 55},
		{"builtin still callable", "int f(int x) { return abs(x); } return f(0 - 4);", 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := eval(t, tt.src).Int64(); got != tt.want {
				t.Errorf("got %d, want %d", got, tt.want)
			}
		})
	}
}

func TestUserFunctionTypes(t *testing.T) {
	v := eval(t, "double half(int x) { return x / 2.0; } return half(7);")
	if v.Kind() != pbio.Float || v.Float64() != 3.5 {
		t.Errorf("double-returning function: %v", v)
	}
	s := eval(t, `char *greet(char *who) { return "hi " + who; } return greet("there");`)
	if s.Strval() != "hi there" {
		t.Errorf("string function: %v", s)
	}
	// int return coerces a float expression.
	n := eval(t, "int trunc2(double x) { return x; } return trunc2(2.9);")
	if n.Kind() != pbio.Integer || n.Int64() != 2 {
		t.Errorf("float→int return coercion: %v", n)
	}
}

func TestVoidFunctions(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{{Name: "n", Kind: pbio.Integer}})
	prog := MustCompile(`
		void bump(int by) { dst.n = dst.n + by; }
		bump(2);
		bump(40);
	`, Param{Name: "dst", Format: f})
	dst := pbio.NewRecord(f)
	if _, err := prog.Run(dst); err != nil {
		t.Fatal(err)
	}
	if v, _ := dst.Get("n"); v.Int64() != 42 {
		t.Errorf("n = %d, want 42", v.Int64())
	}
	if prog.NumFuncs() != 1 {
		t.Errorf("NumFuncs = %d", prog.NumFuncs())
	}
}

func TestFunctionsSeeRecordParams(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{
		{Name: "total", Kind: pbio.Integer},
		{Name: "nums", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer}},
	})
	prog := MustCompile(`
		int nth(int i) { return src.nums[i]; }
		dst.total = nth(0) + nth(1) + nth(2);
	`, Param{Name: "src", Format: f}, Param{Name: "dst", Format: f})
	src := pbio.NewRecord(f).
		MustSet("nums", pbio.ListOf([]pbio.Value{pbio.Int(10), pbio.Int(20), pbio.Int(12)}))
	dst := pbio.NewRecord(f)
	if _, err := prog.Run(src, dst); err != nil {
		t.Fatal(err)
	}
	if v, _ := dst.Get("total"); v.Int64() != 42 {
		t.Errorf("total = %d", v.Int64())
	}
}

func TestFunctionCompileErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		err  error
		msg  string
	}{
		{"redefinition", "int f(int a) { return a; } int f(int b) { return b; }", ErrCompile, "redefined"},
		{"shadows builtin", "int strlen(int a) { return a; }", ErrCompile, "shadows a builtin"},
		{"nested function", "if (1) { int f(int a) { return a; } }", ErrSyntax, "top level"},
		{"void variable", "void x;", ErrSyntax, "void"},
		{"void returns value", "void f(int a) { return a; }", ErrCompile, "void function cannot return"},
		{"missing return value", "int f(int a) { return; }", ErrCompile, "must return a int"},
		{"arity", "int f(int a) { return a; } return f(1, 2);", ErrCompile, "expects 1 argument"},
		{"arg type", `int f(int a) { return a; } return f("str");`, ErrCompile, "argument 1"},
		{"string to int param", `int f(int a) { return a; } char *s; return f(s);`, ErrCompile, "argument 1"},
		{"duplicate params", "int f(int a, int a) { return a; }", ErrCompile, "duplicate parameter"},
		{"param body missing", "int f(int a) return a;", ErrSyntax, "expected function body"},
		{"bad param type", "int f(foo a) { return 1; }", ErrSyntax, "expected parameter type"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Compile(tt.src)
			if err == nil {
				t.Fatalf("Compile(%q) succeeded", tt.src)
			}
			if !errors.Is(err, tt.err) {
				t.Errorf("err = %v, want wrapped %v", err, tt.err)
			}
			if !strings.Contains(err.Error(), tt.msg) {
				t.Errorf("err %q missing %q", err, tt.msg)
			}
		})
	}
}

func TestRunawayRecursionStopped(t *testing.T) {
	prog := MustCompile("int f(int n) { return f(n + 1); } return f(0);")
	_, err := prog.Run()
	if !errors.Is(err, ErrRuntime) || !strings.Contains(err.Error(), "call depth") {
		t.Errorf("err = %v, want call-depth runtime error", err)
	}
}

func TestFunctionStepBudgetShared(t *testing.T) {
	prog := MustCompile(`
		int spin(int n) { int i, s = 0; for (i = 0; i < n; i++) s += i; return s; }
		int j, total = 0;
		for (j = 0; j < 1000; j++) total += spin(1000);
		return total;
	`)
	prog.MaxSteps = 10_000 // far less than the ~10M ops this needs
	_, err := prog.Run()
	if !errors.Is(err, ErrRuntime) || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v, want shared step-limit error", err)
	}
}

// TestCallAllocs: a builtin call allocates nothing and a user-function call
// only its callee's locals, on top of the run's own frame.
func TestCallAllocs(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{{Name: "a", Kind: pbio.Integer}})
	rec := pbio.NewRecord(f).MustSet("a", pbio.Int(-3))
	allocs := func(src string) float64 {
		prog := MustCompile(src, Param{Name: "dst", Format: f})
		return testing.AllocsPerRun(100, func() {
			if _, err := prog.Run(rec); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs("dst.a = dst.a;")
	for src, want := range map[string]float64{
		"dst.a = abs(dst.a) + abs(dst.a);":                          0,
		"int inc(int v) { return v + 1; } dst.a = inc(dst.a);":      1,
		"int inc(int v) { return v + 1; } dst.a = inc(inc(dst.a));": 2,
	} {
		if got := allocs(src) - base; got != want {
			t.Errorf("%s: %v allocs per run beyond the run's own, want %v", src, got, want)
		}
	}
}

// TestFigure5AsFunction rewrites the paper's transformation with a helper
// function, the style the E-Code TR encourages.
func TestFigure5AsFunction(t *testing.T) {
	v1, v2 := echoFormats(t)
	prog, err := Compile(`
int pick(int want_source, int i) {
    if (want_source) return new.member_list[i].is_Source;
    return new.member_list[i].is_Sink;
}
int i, sink_count = 0, src_count = 0;
old.member_count = new.member_count;
for (i = 0; i < new.member_count; i++) {
    old.member_list[i].info = new.member_list[i].info;
    old.member_list[i].ID = new.member_list[i].ID;
    if (pick(1, i)) {
        old.src_list[src_count].info = new.member_list[i].info;
        old.src_list[src_count].ID = new.member_list[i].ID;
        src_count++;
    }
    if (pick(0, i)) {
        old.sink_list[sink_count].info = new.member_list[i].info;
        old.sink_list[sink_count].ID = new.member_list[i].ID;
        sink_count++;
    }
}
old.src_count = src_count;
old.sink_count = sink_count;
`,
		Param{Name: "new", Format: v2}, Param{Name: "old", Format: v1})
	if err != nil {
		t.Fatal(err)
	}
	in := v2Record(t, v2, []struct {
		info         string
		id           int64
		source, sink bool
	}{
		{"a", 1, true, false},
		{"b", 1, false, true},
	})
	out := pbio.NewRecord(v1)
	if _, err := prog.Run(in, out); err != nil {
		t.Fatal(err)
	}
	if v, _ := out.Get("src_count"); v.Int64() != 1 {
		t.Errorf("src_count = %d", v.Int64())
	}
	if v, _ := out.Get("sink_count"); v.Int64() != 1 {
		t.Errorf("sink_count = %d", v.Int64())
	}
}
