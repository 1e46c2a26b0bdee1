package ecode

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pbio"
)

// TestQuickParserNeverPanics: arbitrary byte soup must be rejected (or
// accepted) without panicking — transformation code arrives over the
// network.
func TestQuickParserNeverPanics(t *testing.T) {
	prop := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Compile(src)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTokenSoupNeverPanics: sequences of *valid* tokens in invalid
// arrangements stress the parser more effectively than raw bytes.
func TestQuickTokenSoupNeverPanics(t *testing.T) {
	tokens := []string{
		"int", "double", "char", "*", "if", "else", "for", "while", "return",
		"break", "continue", "(", ")", "{", "}", "[", "]", ";", ",", ".",
		"=", "+", "-", "/", "%", "==", "<", ">", "&&", "||", "!", "?", ":",
		"x", "y", "src", "123", "1.5", `"s"`, "'c'", "++", "--", "+=",
	}
	f, err := pbio.NewFormat("m", []pbio.Field{{Name: "x", Kind: pbio.Integer}})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(picks []uint8) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		if len(picks) > 64 {
			picks = picks[:64]
		}
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(tokens[int(p)%len(tokens)])
			b.WriteByte(' ')
		}
		_, _ = Compile(b.String(), Param{Name: "src", Format: f})
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestDeepNestingRejected: source nested past maxNesting is a syntax error
// at the level that overflows, whatever kind of nesting it is. Unbounded,
// recursion over such source overflows the Go stack and kills the process.
func TestDeepNestingRejected(t *testing.T) {
	const n = 100_000
	for name, src := range map[string]string{
		"parentheses": "return " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ";",
		"unary minus": "return " + strings.Repeat("- ", n) + "1;",
		"ternaries":   "return " + strings.Repeat("1 ? ", n) + "1" + strings.Repeat(" : 1", n) + ";",
		"blocks":      strings.Repeat("{", n) + strings.Repeat("}", n),
		"operators":   "return 1" + strings.Repeat(" + 1", n) + ";",
		"selectors":   "return m" + strings.Repeat(".x", n) + ";",
	} {
		_, err := Compile(src)
		if !errors.Is(err, ErrSyntax) || !strings.Contains(err.Error(), "nesting deeper") {
			t.Errorf("%s: err = %v, want a nesting syntax error", name, err)
		}
	}
	// Nesting inside the bound compiles and runs.
	d := maxNesting/2 - 2
	src := "int x = 1; return " + strings.Repeat("x + (", d) + "x" + strings.Repeat(")", d) + ";"
	if got := eval(t, src).Int64(); got != int64(d+1) {
		t.Errorf("%d-deep sum = %d, want %d", d, got, d+1)
	}
}

// TestStepBudgetBoundsGrowth: the step budget bounds a run's work and
// memory, not just its statement count. Each program below executes only a
// few hundred statements, but evaluates long expressions, creates list
// elements or string bytes, copies lists or compares long strings, so it
// runs out of 100,000 steps.
func TestStepBudgetBoundsGrowth(t *testing.T) {
	leaf, err := pbio.NewFormat("leaf", []pbio.Field{{Name: "v", Kind: pbio.Integer}})
	if err != nil {
		t.Fatal(err)
	}
	holder, err := pbio.NewFormat("holder", []pbio.Field{
		{Name: "l", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wideFields []pbio.Field
	for i := range 200 {
		wideFields = append(wideFields, pbio.Field{Name: "v" + itoa64(int64(i)), Kind: pbio.Integer})
	}
	wide, err := pbio.NewFormat("wide", wideFields)
	if err != nil {
		t.Fatal(err)
	}
	f, err := pbio.NewFormat("m", []pbio.Field{
		{Name: "nums", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer}},
		{Name: "ws", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: wide}},
		{Name: "recs", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: leaf}},
		{Name: "hs", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: holder}},
		{Name: "big", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer}},
		{Name: "name", Kind: pbio.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]pbio.Value, 10_000)
	for i := range big {
		big[i] = pbio.Int(int64(i))
	}
	longSum := "x" + strings.Repeat(" + x", 1000)
	for _, src := range []string{
		"dst.nums[1000000] = 1;",
		"dst.recs[1000000].v = 1;",
		"dst.nums[9223372036854775807] = 1;",
		"dst.ws[1000].v0 = 1;",
		"dst.ws[9223372036854775807].v0 = 1;",
		`char *s = "x"; int i; for (i = 0; i < 25; i++) s += s;`,
		`char *s = "x"; int i; for (i = 0; i < 25; i++) s = strcat(s, s);`,
		"int x = 1, i; for (i = 0; i < 200; i++) x = " + longSum + ";",
		"int x = 1, i; for (i = 0; i < 200; i++) if (" + longSum + ") x++;",
		"int i; for (i = 0; i < 100; i++) dst.hs[i].l = dst.big;",
		"int i, n = 0; for (i = 0; i < 100; i++) n += dst.name == dst.name;",
		"int i, n = 0; for (i = 0; i < 100; i++) n += streq(dst.name, dst.name);",
	} {
		prog := MustCompile(src, Param{Name: "dst", Format: f})
		prog.MaxSteps = 100_000
		rec := pbio.NewRecord(f).MustSet("big", pbio.ListOf(big)).MustSet("name", pbio.Str(strings.Repeat("n", 5_000)))
		if _, err := prog.Run(rec); !errors.Is(err, ErrRuntime) || !strings.Contains(err.Error(), "step limit") {
			t.Errorf("%.60s: err = %v, want step limit", src, err)
		}
	}
}

// ProgramTemplates is a pool of small well-formed-ish programs with "%d"
// holes for numbers; FuzzCompile seeds its corpus with them too.
var ProgramTemplates = []string{
	"int a = %d; return a + %d;",
	"int i, s; for (i = 0; i < %d % 17 + 1; i++) s += %d; return s;",
	"double x = %d + 0.5; return x * %d;",
	"int f(int v) { return v * %d; } return f(%d);",
	"return %d > %d ? 1 : 2;",
	"char *s = \"x\"; int i; for (i = 0; i < %d % 9 + 1; i++) s += \"y\"; return strlen(s) + %d;",
}

// TestQuickCompiledProgramsDontCorruptStack: for programs that do compile,
// running them must never panic, whatever they compute.
func TestQuickCompiledProgramsDontCorruptStack(t *testing.T) {
	templates := ProgramTemplates
	prop := func(which uint8, a, b int16) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		// Substitute the two numbers positionally.
		src := templates[int(which)%len(templates)]
		src = strings.Replace(src, "%d", itoa64(int64(a)), 1)
		src = strings.Replace(src, "%d", itoa64(int64(b)), 1)
		src = strings.ReplaceAll(src, "%d", "3")
		prog, err := Compile(src)
		if err != nil {
			t.Logf("template %d failed to compile: %q: %v", which, src, err)
			return false
		}
		prog.MaxSteps = 100000
		_, _ = prog.Run() // runtime errors (overflow loops) are fine; panics are not
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
