package ecode

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// returnedExpr parses src and returns the expression of its last
// statement, which must be a return.
func returnedExpr(t *testing.T, src string) expr {
	t.Helper()
	p, err := newParser(src)
	if err != nil {
		t.Fatal(err)
	}
	stmts, err := p.parseProgram()
	if err != nil {
		t.Fatal(err)
	}
	return stmts[len(stmts)-1].(*returnStmt).val
}

func TestConstFoldingShrinksPrograms(t *testing.T) {
	// A fully constant expression folds to one literal.
	if lit, ok := foldExpr(returnedExpr(t, "return 2 * 3 + 4;")).(*intLit); !ok || lit.v != 10 {
		t.Errorf("constant return folded to %#v, want the literal 10", lit)
	}
	// The same arithmetic over variables keeps its operators.
	if _, ok := foldExpr(returnedExpr(t, "int a = 2, b = 3, c = 4; return a * b + c;")).(*binaryExpr); !ok {
		t.Error("arithmetic over variables folded away")
	}
}

func TestFoldingSemantics(t *testing.T) {
	tests := []struct {
		src  string
		want int64
	}{
		{"return 2 + 3 * 4;", 14},
		{"return (10 - 4) / 3;", 2},
		{"return 17 % 5;", 2},
		{"return -(3 + 4);", -7},
		{"return 1 < 2;", 1},
		{"return 5 == 5 && 2 != 3;", 1},
		{"return 0 || 7;", 1},
		{`return "ab" + "cd" == "abcd";`, 1},
		{`return "a" < "b";`, 1},
		{"return 1 ? 42 : 99;", 42},
		{"return 0 ? 42 : 99;", 99},
		{`return "" ? 1 : 2;`, 2},
		{"return 2.0 < 3;", 1},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			if got := eval(t, tt.src).Int64(); got != tt.want {
				t.Errorf("got %d, want %d", got, tt.want)
			}
		})
	}
	if got := eval(t, "return 100.0 * 2.5;").Float64(); got != 250 {
		t.Errorf("float fold = %g", got)
	}
	if got := eval(t, "return 7 / 2.0;").Float64(); got != 3.5 {
		t.Errorf("mixed fold = %g", got)
	}
}

func TestFoldingPreservesRuntimeErrors(t *testing.T) {
	// Constant division by zero must remain a runtime error with the right
	// position, not a compile-time crash or silent zero.
	prog := MustCompile("return 1 / 0;")
	if _, err := prog.Run(); !errors.Is(err, ErrRuntime) || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v, want division-by-zero runtime error", err)
	}
	prog2 := MustCompile("return 1 % 0;")
	if _, err := prog2.Run(); !errors.Is(err, ErrRuntime) {
		t.Errorf("err = %v", err)
	}
	// IEEE float division by zero is not an error — folded or not.
	if v := eval(t, "return 1.0 / 0.0;"); v.Float64() <= 0 {
		t.Errorf("float div by zero = %v, want +Inf", v)
	}
}

// TestQuickFoldEquivalence: folded constant arithmetic matches the compiled
// program executing the same operation on variables.
func TestQuickFoldEquivalence(t *testing.T) {
	ops := []string{"+", "-", "*", "<", "==", ">="}
	for _, op := range ops {
		op := op
		prop := func(a, b int16) bool {
			constSrc := "return " + itoa64(int64(a)) + " " + op + " " + itoa64(int64(b)) + ";"
			varSrc := "int x = " + itoa64(int64(a)) + ", y = " + itoa64(int64(b)) + "; return x " + op + " y;"
			pc, err := Compile(constSrc)
			if err != nil {
				t.Logf("compile %q: %v", constSrc, err)
				return false
			}
			pv, err := Compile(varSrc)
			if err != nil {
				t.Logf("compile %q: %v", varSrc, err)
				return false
			}
			cv, err := pc.Run()
			if err != nil {
				return false
			}
			vv, err := pv.Run()
			if err != nil {
				return false
			}
			return cv.Int64() == vv.Int64()
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("op %s: %v", op, err)
		}
	}
}
