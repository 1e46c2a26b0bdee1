package ecode

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pbio"
)

// evalInt compiles and runs "…; return expr;"-style source with no record
// parameters and returns the produced value.
func eval(t *testing.T, src string) pbio.Value {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	v, err := prog.Run()
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		src  string
		want int64
	}{
		{"return 1 + 2;", 3},
		{"return 7 - 10;", -3},
		{"return 6 * 7;", 42},
		{"return 7 / 2;", 3},
		{"return -7 / 2;", -3}, // C truncates toward zero
		{"return 7 % 3;", 1},
		{"return -7 % 3;", -1},
		{"return 2 + 3 * 4;", 14},
		{"return (2 + 3) * 4;", 20},
		{"return 10 - 3 - 2;", 5}, // left associative
		{"return 100 / 10 / 2;", 5},
		{"return -(-5);", 5},
		{"return +5;", 5},
		{"return 'A';", 65},
		{"return '\\n';", 10},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			if got := eval(t, tt.src).Int64(); got != tt.want {
				t.Errorf("got %d, want %d", got, tt.want)
			}
		})
	}
}

func TestFloatArithmetic(t *testing.T) {
	tests := []struct {
		src  string
		want float64
	}{
		{"return 1.5 + 2.25;", 3.75},
		{"return 1 + 2.5;", 3.5}, // int promoted to double
		{"return 2.5 + 1;", 3.5},
		{"return 7 / 2.0;", 3.5},
		{"return 7.0 / 2;", 3.5},
		{"return -1.5;", -1.5},
		{"return 1e3 + 1;", 1001},
		{"return 2.5e-1;", 0.25},
		{"double x = 3; return x / 2;", 1.5},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			v := eval(t, tt.src)
			if v.Kind() != pbio.Float {
				t.Fatalf("kind = %v, want float", v.Kind())
			}
			if got := v.Float64(); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("got %g, want %g", got, tt.want)
			}
		})
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	tests := []struct {
		src  string
		want int64
	}{
		{"return 1 < 2;", 1},
		{"return 2 < 1;", 0},
		{"return 2 <= 2;", 1},
		{"return 3 > 2;", 1},
		{"return 2 >= 3;", 0},
		{"return 2 == 2;", 1},
		{"return 2 != 2;", 0},
		{"return 1.5 < 2;", 1},
		{"return 2 == 2.0;", 1},
		{`return "abc" == "abc";`, 1},
		{`return "abc" < "abd";`, 1},
		{`return "b" >= "a";`, 1},
		{"return 1 && 2;", 1},
		{"return 1 && 0;", 0},
		{"return 0 || 3;", 1},
		{"return 0 || 0;", 0},
		{"return !0;", 1},
		{"return !5;", 0},
		{"return !!7;", 1},
		{`return !"";`, 1},
		{`return !"x";`, 0},
		{"return 1 < 2 && 2 < 3;", 1},
		{"return 1 ? 10 : 20;", 10},
		{"return 0 ? 10 : 20;", 20},
		{"return 1 ? 2 ? 3 : 4 : 5;", 3},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			if got := eval(t, tt.src).Int64(); got != tt.want {
				t.Errorf("got %d, want %d", got, tt.want)
			}
		})
	}
}

func TestTernaryMixedNumeric(t *testing.T) {
	v := eval(t, "return 1 ? 2 : 3.5;")
	if v.Kind() != pbio.Float || v.Float64() != 2 {
		t.Errorf("got %v, want float 2", v)
	}
	v = eval(t, "return 0 ? 2 : 3.5;")
	if v.Float64() != 3.5 {
		t.Errorf("got %v, want 3.5", v)
	}
}

func TestShortCircuit(t *testing.T) {
	// The right side would divide by zero if evaluated.
	if got := eval(t, "return 0 && (1 / 0);").Int64(); got != 0 {
		t.Errorf("&& short circuit: got %d", got)
	}
	if got := eval(t, "return 1 || (1 / 0);").Int64(); got != 1 {
		t.Errorf("|| short circuit: got %d", got)
	}
}

func TestStringOps(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`return "foo" + "bar";`, "foobar"},
		{`return strcat("a", "b");`, "ab"},
		{`return itoa(42);`, "42"},
		{`return itoa(-7);`, "-7"},
		{`return dtoa(1.5);`, "1.5"},
		{`return substr("hello", 1, 3);`, "ell"},
		{`return substr("hello", 3, 99);`, "lo"},
		{`return substr("hello", 1, 9223372036854775807);`, "ello"},
		{`char *s = "x"; s += "y"; return s;`, "xy"},
		{`return "tab\there\n";`, "tab\there\n"},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			if got := eval(t, tt.src).Strval(); got != tt.want {
				t.Errorf("got %q, want %q", got, tt.want)
			}
		})
	}
}

func TestBuiltins(t *testing.T) {
	tests := []struct {
		src  string
		want int64
	}{
		{`return strlen("hello");`, 5},
		{`return strlen("");`, 0},
		{`return len("abc");`, 3},
		{"return abs(-5);", 5},
		{"return abs(5);", 5},
		{`return atoi("123");`, 123},
		{`return atoi("-45");`, -45},
		{`return atoi("junk");`, 0},
		{`return streq("a", "a");`, 1},
		{`return streq("a", "b");`, 0},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			if got := eval(t, tt.src).Int64(); got != tt.want {
				t.Errorf("got %d, want %d", got, tt.want)
			}
		})
	}
	if got := eval(t, "return fabs(-1.5);").Float64(); got != 1.5 {
		t.Errorf("fabs = %g", got)
	}
	if got := eval(t, "return floor(2.7);").Float64(); got != 2 {
		t.Errorf("floor = %g", got)
	}
	if got := eval(t, "return ceil(2.1);").Float64(); got != 3 {
		t.Errorf("ceil = %g", got)
	}
	if got := eval(t, `return atof("2.5");`).Float64(); got != 2.5 {
		t.Errorf("atof = %g", got)
	}
}

func TestStatements(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want int64
	}{
		{"locals", "int a = 1, b = 2; return a + b;", 3},
		{"zero init", "int a; return a;", 0},
		{"reassign", "int a = 1; a = 5; return a;", 5},
		{"compound", "int a = 10; a += 5; a -= 3; a *= 2; a /= 4; a %= 4; return a;", 2},
		{"postfix inc", "int a = 1; a++; return a;", 2},
		{"prefix dec", "int a = 1; --a; return a;", 0},
		{"if taken", "int a = 0; if (1 < 2) a = 7; return a;", 7},
		{"if not taken", "int a = 0; if (2 < 1) a = 7; return a;", 0},
		{"if else", "int a; if (0) a = 1; else a = 2; return a;", 2},
		{"else if chain", "int x = 2, r; if (x == 1) r = 10; else if (x == 2) r = 20; else r = 30; return r;", 20},
		{"for sum", "int i, s = 0; for (i = 0; i < 10; i++) s += i; return s;", 45},
		{"for no cond braces", "int i, s = 0; for (i = 0; i < 3; i++) { s += 1; s += 1; } return s;", 6},
		{"while", "int n = 100, c = 0; while (n > 1) { n /= 2; c++; } return c;", 6},
		{"break", "int i, s = 0; for (i = 0; i < 100; i++) { if (i == 5) break; s += i; } return s;", 10},
		{"continue", "int i, s = 0; for (i = 0; i < 10; i++) { if (i % 2) continue; s += i; } return s;", 20},
		{"nested loops", "int i, j, c = 0; for (i = 0; i < 3; i++) for (j = 0; j < 4; j++) c++; return c;", 12},
		{"nested break", "int i, j, c = 0; for (i = 0; i < 3; i++) { for (j = 0; j < 10; j++) { if (j == 2) break; c++; } } return c;", 6},
		{"while continue", "int i = 0, s = 0; while (i < 6) { i++; if (i == 3) continue; s += i; } return s;", 18},
		{"empty statement", ";;; return 1;", 1},
		{"return void then unreachable", "return 9; return 1;", 9},
		{"comments", "// line\nint a = 1; /* block\n comment */ return a;", 1},
		{"infinite for with break", "int i = 0; for (;;) { i++; if (i == 4) break; } return i;", 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := eval(t, tt.src).Int64(); got != tt.want {
				t.Errorf("got %d, want %d", got, tt.want)
			}
		})
	}
}

func TestReturnNothing(t *testing.T) {
	prog, err := Compile("int a = 1; return;")
	if err != nil {
		t.Fatal(err)
	}
	v, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsZero() {
		t.Errorf("bare return produced %v", v)
	}
	// Falling off the end behaves the same.
	prog2 := MustCompile("int a = 1; a = a + 1;")
	if v, err := prog2.Run(); err != nil || !v.IsZero() {
		t.Errorf("fall-off-end: %v, %v", v, err)
	}
}

func TestCompileErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		err  error
		msg  string
	}{
		{"lex bad char", "return 1 @ 2;", ErrSyntax, "unexpected character"},
		{"lex bitwise", "return 1 & 2;", ErrSyntax, "bitwise"},
		{"lex unterminated string", `return "abc;`, ErrSyntax, "unterminated string"},
		{"lex unterminated comment", "/* foo", ErrSyntax, "unterminated block comment"},
		{"lex bad escape", `return "\q";`, ErrSyntax, "unknown escape"},
		{"parse missing semi", "return 1", ErrSyntax, "expected ';'"},
		{"parse missing paren", "if (1 { }", ErrSyntax, "expected ')'"},
		{"parse bad expr", "int a = ;", ErrSyntax, "expected expression"},
		{"parse decl in for", "for (int i = 0; i < 3; i++) ;", ErrSyntax, "declare before the loop"},
		{"parse char without star", "char c;", ErrSyntax, "char *"},
		{"parse unterminated block", "{ int a;", ErrSyntax, "unterminated block"},
		{"undefined var", "return x;", ErrCompile, "undefined variable"},
		{"redeclaration", "int a; int a;", ErrCompile, "redeclaration"},
		{"unknown func", "return nope(1);", ErrCompile, "unknown function"},
		{"arity", "return strlen();", ErrCompile, "expects 1 argument"},
		{"arg type", "return strlen(5);", ErrCompile, "must be string"},
		{"mod floats", "return 1.5 % 2;", ErrCompile, "must be ints"},
		{"string minus", `return "a" - "b";`, ErrCompile, "invalid operands"},
		{"string plus int", `return "a" + 1;`, ErrCompile, "invalid operands"},
		{"compare str int", `return "a" < 1;`, ErrCompile, "cannot compare"},
		{"assign str to int", `int a; a = "x";`, ErrCompile, "cannot assign"},
		{"assign int to str", `char *s; s = 3;`, ErrCompile, "cannot assign"},
		{"break outside", "break;", ErrCompile, "break outside loop"},
		{"continue outside", "continue;", ErrCompile, "continue outside loop"},
		{"assign to literal", "1 = 2;", ErrCompile, "not assignable"},
		{"negate string", `return -"a";`, ErrCompile, "cannot negate"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Compile(tt.src)
			if err == nil {
				t.Fatalf("Compile(%q) succeeded, want error", tt.src)
			}
			if !errors.Is(err, tt.err) {
				t.Errorf("err = %v, want wrapped %v", err, tt.err)
			}
			if tt.msg != "" && !strings.Contains(err.Error(), tt.msg) {
				t.Errorf("err %q missing %q", err, tt.msg)
			}
		})
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Compile("int a = 1;\nint b = a +\n  zzz;")
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "3:3") {
		t.Errorf("error %q should point at line 3 col 3", err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		msg  string
	}{
		{"div zero", "int z = 0; return 1 / z;", "division by zero"},
		{"mod zero", "int z = 0; return 1 % z;", "modulo by zero"},
		{"step limit", "int i = 0; while (1) i++;", "step limit"},
		{"substr range", `return substr("abc", -1, 2);`, "out of range"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			prog, err := Compile(tt.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			prog.MaxSteps = 100000
			_, err = prog.Run()
			if err == nil {
				t.Fatal("want runtime error")
			}
			if !errors.Is(err, ErrRuntime) {
				t.Errorf("err = %v, want wrapped ErrRuntime", err)
			}
			if !strings.Contains(err.Error(), tt.msg) {
				t.Errorf("err %q missing %q", err, tt.msg)
			}
		})
	}
}

// TestQuickIntArithmetic cross-checks compiled arithmetic against Go.
func TestQuickIntArithmetic(t *testing.T) {
	ops := []struct {
		sym string
		fn  func(a, b int64) int64
	}{
		{"+", func(a, b int64) int64 { return a + b }},
		{"-", func(a, b int64) int64 { return a - b }},
		{"*", func(a, b int64) int64 { return a * b }},
	}
	for _, o := range ops {
		o := o
		prop := func(a, b int32) bool {
			src := "int x = " + itoa64(int64(a)) + ", y = " + itoa64(int64(b)) + "; return x " + o.sym + " y;"
			prog, err := Compile(src)
			if err != nil {
				t.Logf("compile %q: %v", src, err)
				return false
			}
			v, err := prog.Run()
			if err != nil {
				t.Logf("run %q: %v", src, err)
				return false
			}
			return v.Int64() == o.fn(int64(a), int64(b))
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("op %s: %v", o.sym, err)
		}
	}
}

func itoa64(n int64) string {
	if n < 0 {
		// Write negative literals as 0 - k to avoid unary parse ambiguity
		// in generated code (and exercise the subtraction path).
		return "(0 - " + itoa64(-n) + ")"
	}
	digits := "0123456789"
	if n < 10 {
		return digits[n : n+1]
	}
	return itoa64(n/10) + digits[n%10:n%10+1]
}
