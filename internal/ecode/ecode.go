package ecode

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/pbio"
)

// Param declares one record parameter of a transformation: its name as
// referenced by the source text and the format it must conform to. The
// paper's Figure 5 transform has two parameters, "new" (the incoming v2.0
// message) and "old" (the outgoing v1.0 message).
type Param struct {
	Name   string
	Format *pbio.Format
}

// Program is a compiled transformation. It is safe for concurrent Run calls:
// all per-run state lives in the frame Run allocates, and the one thing a
// Run may set, a field-moving program's closures, is built once.
type Program struct {
	// MaxSteps bounds one Run's steps, and so its time and memory: each
	// executed statement or loop test costs one plus the expression nodes
	// it evaluates, and each list element, record field or string byte it
	// creates, copies, compares or passes to a builtin costs one more.
	// Zero means DefaultMaxSteps. Set before sharing the Program across
	// goroutines.
	MaxSteps int

	main    execFn
	nlocals int
	npaths  int
	params  []Param
	funcs   []*ufunc
	src     string

	// A program that only moves fields (moves non-nil, see FieldMap) is
	// often never run: its caller runs the moves instead. Its closures are
	// built on its first Run, from stmts.
	moves []FieldMove
	stmts []stmt
	build sync.Once
	err   error // building the closures failed, which fieldMap rules out
}

// Compile parses, type-checks and compiles src against the given record
// parameters into a tree of Go closures. Field references are resolved to
// field indices now, so Run does no name lookups — the closure analog of the
// paper's dynamically generated conversion subroutine. A program that only
// moves fields (FieldMap) is checked now but built on its first Run, since
// its caller usually runs the moves instead.
func Compile(src string, params ...Param) (*Program, error) {
	var t0 time.Time
	st := obsCur.Load()
	if st != nil {
		t0 = time.Now()
	}
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	stmts, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	c, err := newCompiler(params)
	if err != nil {
		return nil, err
	}
	prog := &Program{params: append([]Param(nil), params...), src: src}
	if prog.moves = fieldMap(stmts, params); prog.moves != nil {
		prog.stmts = stmts
	} else if err := prog.compile(c, stmts); err != nil {
		return nil, err
	}
	if st != nil {
		st.compiles.Inc()
		st.compileNS.ObserveNS(time.Since(t0).Nanoseconds())
	}
	return prog, nil
}

// compile builds the program's closures from its statements.
func (p *Program) compile(c *compiler, stmts []stmt) error {
	main, err := c.compileProgram(stmts)
	if err != nil {
		return err
	}
	p.main, p.nlocals, p.npaths, p.funcs = main, c.nslots, c.npaths, c.funcs
	return nil
}

// MustCompile is Compile but panics on error, for statically known
// transformation tables.
func MustCompile(src string, params ...Param) *Program {
	p, err := Compile(src, params...)
	if err != nil {
		panic(err)
	}
	return p
}

// Params returns the program's declared parameters.
func (p *Program) Params() []Param { return append([]Param(nil), p.params...) }

// Source returns the source text the program was compiled from.
func (p *Program) Source() string { return p.src }

// NumFuncs reports how many user-defined functions the program declares.
func (p *Program) NumFuncs() int { return len(p.funcs) }

// ErrArgs is wrapped by Run argument-validation failures.
var ErrArgs = errors.New("ecode: bad run arguments")

// Run executes the program against the given records, which must match the
// compiled parameters in number, order and structure. Destination records
// are mutated in place. The returned Value is the program's `return`
// expression result, or the zero Value if execution fell off the end.
func (p *Program) Run(recs ...*pbio.Record) (_ pbio.Value, err error) {
	if len(recs) != len(p.params) {
		return pbio.Value{}, fmt.Errorf("%w: program has %d parameter(s), got %d record(s)",
			ErrArgs, len(p.params), len(recs))
	}
	for i, r := range recs {
		if r == nil {
			return pbio.Value{}, fmt.Errorf("%w: record %d (%q) is nil", ErrArgs, i, p.params[i].Name)
		}
		if !r.Format().SameStructure(p.params[i].Format) {
			return pbio.Value{}, fmt.Errorf("%w: record %d has format %q (%016x), parameter %q needs %q (%016x)",
				ErrArgs, i, r.Format().Name(), r.Format().Fingerprint(),
				p.params[i].Name, p.params[i].Format.Name(), p.params[i].Format.Fingerprint())
		}
	}
	if p.moves != nil {
		p.build.Do(func() {
			c, _ := newCompiler(p.params) // the parameters were checked by Compile
			p.err = p.compile(c, p.stmts)
			p.stmts = nil
		})
		if p.err != nil {
			return pbio.Value{}, p.err
		}
	}
	limit := p.MaxSteps
	if limit <= 0 {
		limit = DefaultMaxSteps
	}
	f := newFrame(recs, p.nlocals, p.npaths, limit)
	defer func() {
		if r := recover(); r != nil {
			rf, ok := r.(runFailure)
			if !ok {
				panic(r)
			}
			err = rf.err
		}
		if st := obsCur.Load(); st != nil {
			st.runs.Inc()
			st.runSteps.Observe(uint64(f.limit - f.left))
		}
	}()
	p.main(f)
	return f.ret, nil
}
