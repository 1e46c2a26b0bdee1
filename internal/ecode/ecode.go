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
	// often never run: its caller runs the moves instead. A lazy one, whose
	// moves have no loop, has its closures built on its first Run, from
	// stmts.
	moves []FieldMove
	lazy  bool
	stmts []stmt
	build sync.Once
	err   error // building the closures failed, which fieldMap rules out

	// lists are the parameters' list fields the program grows by
	// subscript; inputs are all their top-level list fields, whose lengths
	// size the room a run gives the lists it grows (see Run).
	lists, inputs []listRef
}

// Compile parses, type-checks and compiles src against the given record
// parameters into a tree of Go closures. Field references are resolved to
// field indices now, so Run does no name lookups — the closure analog of the
// paper's dynamically generated conversion subroutine. A program that only
// moves fields (FieldMap), with no loop, is checked now but built on its
// first Run, since its caller usually runs the moves instead.
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
	prog.moves = fieldMap(stmts, params)
	if prog.lazy = prog.moves != nil && !looped(prog.moves); prog.lazy {
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

// looped says a field map has a loop: a list move.
func looped(moves []FieldMove) bool {
	return len(moves) > 0 && moves[len(moves)-1].Each != nil
}

// compile builds the program's closures from its statements.
func (p *Program) compile(c *compiler, stmts []stmt) error {
	main, err := c.compileProgram(stmts)
	if err != nil {
		return err
	}
	p.main, p.nlocals, p.npaths, p.funcs = main, c.nslots, c.npaths, c.funcs
	p.lists, p.inputs = c.lists, nil
	if len(c.lists) > 0 {
		for i, prm := range p.params {
			for j := range prm.Format.NumFields() {
				if prm.Format.Field(j).Kind == pbio.List {
					p.inputs = append(p.inputs, listRef{param: i, field: j})
				}
			}
		}
	}
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
//
// What a run stores into a record shares no record or list memory with what
// it read: a store of a record or a list stores a deep copy, and locals
// hold only numbers and strings, which are immutable. Once Run returns, a
// caller may therefore reuse the memory of a record the program only read,
// as the morphing engine does with the decoded message. The returned Value
// is the exception: `return new.r;` returns the input's own record.
//
// A list field the program grows by subscript that is nil when a run
// starts, as NewRecord leaves it, gets room for as many elements as the
// run's records hold in their top-level lists, carved with the elements'
// records from one chunk of the run's slab; if the run leaves it holding
// that room and nothing else, it is nil again. The room is sized from this
// run's records alone, never more than its step budget could append, and
// changes no step charge: a run is charged for each element it appends.
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
	if p.lazy {
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
	p.presize(f, recs)
	defer func() {
		if r := recover(); r != nil {
			rf, ok := r.(runFailure)
			if !ok {
				panic(r)
			}
			err = rf.err
		}
		p.settle(f, recs)
		if st := obsCur.Load(); st != nil {
			st.runs.Inc()
			st.runSteps.Observe(uint64(f.limit - f.left))
		}
	}()
	p.main(f)
	return f.ret, nil
}

// presize starts each list the program grows that is nil, as NewRecord
// leaves it, with room for as many elements as recs hold in their
// top-level lists: the lists' arrays and element records come from one
// chunk of the frame's slab. The chunk holds no more Values than the run's
// step budget could append, each element being charged its values
// (elemSize), so MaxSteps still bounds the run's memory. The first
// len(f.room) lists can get room; the frame notes the arrays it carved.
func (p *Program) presize(f *frame, recs []*pbio.Record) {
	if len(p.lists) == 0 {
		return
	}
	var n int64
	for _, in := range p.inputs {
		n += int64(recs[in.param].GetIndex(in.field).Len())
	}
	var given uint8 // bit i: p.lists[i] is nil and gets room
	var perRecs, perVals int64
	for i := range min(len(p.lists), len(f.room)) {
		l := &p.lists[i]
		if recs[l.param].GetIndex(l.field).List() == nil {
			given |= 1 << i
			perRecs += int64(l.recs)
			perVals += 1 + int64(l.vals)
		}
	}
	if n = min(n, f.limit/max(perVals, 1)); n == 0 || given == 0 {
		return
	}
	f.slab.Grow(int(n*perRecs), int(n*perVals))
	for i := range len(f.room) {
		if given&(1<<i) != 0 {
			l := &p.lists[i]
			room := f.slab.NewList(int(n))
			// Cannot fail: an empty list fits any list field.
			_ = recs[l.param].SetIndex(l.field, room)
			f.room[i] = &room.List()[:1][0]
		}
	}
}

// settle sets each list presize gave room back to nil if the run left it
// holding that room and no element: a list the run replaced stays as the
// run left it, even if empty.
func (p *Program) settle(f *frame, recs []*pbio.Record) {
	for i, a := range f.room {
		if a == nil {
			continue
		}
		l := &p.lists[i]
		if v := recs[l.param].GetIndex(l.field).List(); len(v) == 0 && cap(v) > 0 && &v[:1][0] == a {
			_ = recs[l.param].SetIndex(l.field, pbio.ListOf(nil)) // cannot fail, as in presize
		}
	}
}
