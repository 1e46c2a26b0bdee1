package ecode

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strconv"
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

// operand is a value of one Ecode type: the type a local holding it is
// declared with, and the value as a literal.
type operand struct{ decl, lit string }

func intOperand(v int64) operand {
	return operand{"int", "(" + strconv.FormatInt(v, 10) + ")"}
}

// doubleOperand writes v with an exponent, so a whole number still lexes as
// a double.
func doubleOperand(v float64) operand {
	return operand{"double", "(" + strconv.FormatFloat(v, 'e', -1, 64) + ")"}
}

func strOperand(s string) operand {
	return operand{"char *", `"` + strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(s) + `"`}
}

// foldForms writes form, an expression over a, b and c, as a program that
// returns it twice over: once with the operands as literals, which the
// compiler folds, and once with them in locals, which it does not.
func foldForms(form string, ops ...operand) (lit, vars string) {
	var decls strings.Builder
	var subst []string
	for i, op := range ops {
		name := string(rune('a' + i))
		fmt.Fprintf(&decls, "%s %s = %s; ", op.decl, name, op.lit)
		subst = append(subst, name, op.lit)
	}
	return "return " + strings.NewReplacer(subst...).Replace(form) + ";",
		decls.String() + "return " + form + ";"
}

var errPos = regexp.MustCompile(`^.*? at \d+:\d+: `)

// conflict is an error's text past its source position, which differs
// between the two forms of an expression.
func conflict(err error) string { return errPos.ReplaceAllString(err.Error(), "") }

// TestFoldingKeepsTypeErrors: an operation over literals that is a compile
// error over variables is the same compile error, not a folded value.
func TestFoldingKeepsTypeErrors(t *testing.T) {
	for _, tc := range []struct {
		form string
		ops  []operand
	}{
		{"a ? b : c", []operand{intOperand(1), intOperand(2), strOperand("x")}},
		{"a ? b : c", []operand{intOperand(0), strOperand("x"), intOperand(2)}},
		{"-a", []operand{strOperand("x")}},
		{"a * b", []operand{strOperand("a"), intOperand(2)}},
		{"a == b", []operand{intOperand(2), strOperand("2")}},
		{"a % b", []operand{doubleOperand(1.5), intOperand(2)}},
	} {
		lit, vars := foldForms(tc.form, tc.ops...)
		_, varErr := Compile(vars)
		if !errors.Is(varErr, ErrCompile) {
			t.Fatalf("%s: Compile error %v, want ErrCompile", vars, varErr)
		}
		if _, err := Compile(lit); !errors.Is(err, ErrCompile) || conflict(err) != conflict(varErr) {
			t.Errorf("%s: Compile error %v, want %q", lit, err, conflict(varErr))
		}
	}
}

// scalar holds one operand of each Ecode type. A quarter of them are zero,
// so division by zero, false conditions and empty strings come up often.
type scalar struct {
	i int64
	d float64
	s string
}

func (scalar) Generate(r *rand.Rand, _ int) reflect.Value {
	var s scalar
	if r.Intn(4) > 0 {
		s.i = quickValue[int64](r)
		s.d = quickValue[float64](r)
		s.s = quickValue[string](r)
	}
	return reflect.ValueOf(s)
}

func quickValue[T any](r *rand.Rand) T {
	v, _ := quick.Value(reflect.TypeFor[T](), r)
	return v.Interface().(T)
}

// operandKinds turn a scalar into an operand of each type.
var operandKinds = []func(scalar) operand{
	func(s scalar) operand { return intOperand(s.i) },
	func(s scalar) operand { return doubleOperand(s.d) },
	func(s scalar) operand { return strOperand(s.s) },
}

// TestQuickFoldEquivalence: every operator over literals, which the
// compiler folds, agrees with the same operator over locals, which it does
// not — on whether it compiles, on its value and on its runtime error —
// for every combination of int, double and string operands.
func TestQuickFoldEquivalence(t *testing.T) {
	forms := []string{"-a", "!a", "a ? b : c"}
	for _, op := range []string{"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||"} {
		forms = append(forms, "a "+op+" b")
	}
	for _, form := range forms {
		arity := strings.Count(form, "a") + strings.Count(form, "b") + strings.Count(form, "c")
		n := len(operandKinds)
		for combo := range pow(n, arity) {
			// combo's base-n digits pick each operand's type.
			operands := func(s ...scalar) []operand {
				ops := make([]operand, arity)
				for i := range ops {
					ops[i] = operandKinds[combo/pow(n, i)%n](s[i])
				}
				return ops
			}
			prop := func(x, y, z scalar) bool {
				lit, vars := foldForms(form, operands(x, y, z)...)
				if d := foldDisagreement(lit, vars); d != "" {
					t.Log(d)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
				_, vars := foldForms(form, operands(scalar{}, scalar{}, scalar{})...)
				t.Errorf("%s: %v", vars, err)
			}
		}
	}
}

func pow(b, n int) int {
	p := 1
	for range n {
		p *= b
	}
	return p
}

// foldDisagreement says how the literal and the variable form of an
// expression differ, or returns "" when they agree.
func foldDisagreement(lit, vars string) string {
	pl, litErr := Compile(lit)
	pv, varErr := Compile(vars)
	if (litErr == nil) != (varErr == nil) {
		return fmt.Sprintf("%s: %v\n%s: %v", lit, litErr, vars, varErr)
	}
	if litErr != nil {
		return ""
	}
	lv, litErr := pl.Run()
	vv, varErr := pv.Run()
	if !lv.Equal(vv) || (litErr == nil) != (varErr == nil) || litErr != nil && conflict(litErr) != conflict(varErr) {
		return fmt.Sprintf("%s = %v, %v\n%s = %v, %v", lit, lv, litErr, vars, vv, varErr)
	}
	return ""
}
