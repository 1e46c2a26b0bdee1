package ecode

import (
	"errors"
	"fmt"

	"repro/internal/pbio"
)

// ErrCompile is wrapped by all semantic (type-checking and resolution)
// failures. Syntax failures wrap ErrSyntax instead.
var ErrCompile = errors.New("ecode: compile error")

func compileErrf(pos Pos, format string, args ...any) error {
	return fmt.Errorf("%w at %v: %s", ErrCompile, pos, fmt.Sprintf(format, args...))
}

// The compiler turns the syntax tree into Go closures in one pass that also
// type-checks it: an expression becomes an exprCode (see exprcode.go), a
// statement an execFn that reports how control leaves it. Field references
// are resolved to indices here, so running a Program does no name lookups.
type execFn func(*frame) ctl

// ctl is how control leaves a statement.
type ctl uint8

const (
	ctlNext ctl = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

type localVar struct {
	slot int
	typ  etype
	// binds are the path bindings whose subscripts read this local, which
	// an assignment to it drops. Compilation appends to it as it finds
	// such paths, after it may have compiled assignments, so they read it
	// when they run.
	binds []int
}

type compiler struct {
	params []Param
	pindex map[string]int
	locals map[string]*localVar
	nslots int

	// Enclosing statements a break (loops and switches) or a continue
	// (loops only) may leave.
	breakable, continuable int

	funcs  []*ufunc
	findex map[string]int
	inFunc bool
	curRet etype // declared return type while compiling a function body

	// nodes counts the syntax-tree expression nodes compiled so far. Each
	// runs at most once per evaluation of its expression, so charging a
	// statement for the nodes of its own expressions bounds the work it
	// does.
	nodes int64

	// paths interns the record paths of the main program (see bindSlot),
	// and npaths counts the ones bound to a frame slot.
	paths  []pathNode
	npaths int
	prefs  []recRef // the parameters' records, built once

	// lists are the parameters' list fields a subscripted store grows (see
	// Program.Run).
	lists []listRef
}

// listRef is list field field of record parameter param, each of whose
// elements takes recs records and vals values of a slab besides its own
// value (its Footprint, for a list of records).
type listRef struct {
	param, field int
	recs, vals   int
}

// grows notes that a store may grow list field fidx of parameter p.
func (c *compiler) grows(p, fidx int) {
	r := listRef{param: p, field: fidx}
	if elem := c.params[p].Format.Field(fidx).Elem; elem.Kind == pbio.Complex {
		r.recs, r.vals = elem.Sub.Footprint()
	}
	for _, l := range c.lists {
		if l == r {
			return
		}
	}
	c.lists = append(c.lists, r)
}

// cost is what one run of the expressions compiled since mark is charged:
// one step, plus one per syntax-tree node.
func (c *compiler) cost(mark int64) int64 { return 1 + c.nodes - mark }

// ufunc is a compiled user-defined function.
type ufunc struct {
	name    string
	params  []etype
	result  etype // k == tVoid for void functions
	nlocals int
	body    execFn
}

func newCompiler(params []Param) (*compiler, error) {
	c := &compiler{
		params: params,
		pindex: make(map[string]int, len(params)),
		locals: make(map[string]*localVar),
	}
	for i, p := range params {
		if p.Name == "" || p.Format == nil {
			return nil, fmt.Errorf("%w: parameter %d needs a name and a format", ErrCompile, i)
		}
		if _, dup := c.pindex[p.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate parameter %q", ErrCompile, p.Name)
		}
		c.pindex[p.Name] = i
	}
	return c, nil
}

// --- path binding ---

// Path binding. In the main program, a record reached through a list
// subscript — new.member_list[i], old.src_list[src_count] — is navigated
// once and kept in a frame slot, as long as every subscript on its path is
// an int literal or a local. A later use of the same path reads the slot.
// Only three things can change the record such a path reaches, and each
// drops bindings:
//   - assigning a local drops the bindings whose subscripts read it;
//   - a store that replaces a record or a list — a record or list field,
//     or an element of a list of records or lists — drops them all, since
//     it may replace a prefix of any path (parameters may share records,
//     or be one record);
//   - so does returning from a user function, which may have made such a
//     store (function bodies bind nothing).
//
// A store of a number or a string changes a record in place, which every
// binding of it sees. Growing a list moves its array, not its records.

// maxPaths bounds the record paths a program binds: a program that names
// more runs the rest unbound, which keeps interning linear.
const maxPaths = 64

// pathKey is one step of a record path: from path parent (a parameter p is
// -1-p) to its field, or, when field is -1, to its element at the literal
// index idx, or at the index held by the local in slot idx.
type pathKey struct {
	parent, field int
	local         bool
	idx           int64
}

// pathNode is an interned path: its last step, the local that step's
// subscript reads, if any, and its binding slot, or -1 while it has none.
type pathNode struct {
	key  pathKey
	lv   *localVar
	slot int
}

// path is an interned record or list path, c.paths[id]. The zero path is
// none: an expression the program may not bind.
type path struct {
	ok bool
	id int
}

// step interns the path that extends p by k, whose subscript reads lv if
// it is not nil. It returns none when p is none, the compiler is in a
// function body or the program has maxPaths paths already.
func (c *compiler) step(p path, k pathKey, lv *localVar) path {
	if !p.ok || c.inFunc {
		return path{}
	}
	k.parent = p.id
	for id := range c.paths {
		if c.paths[id].key == k {
			return path{ok: true, id: id}
		}
	}
	if len(c.paths) == maxPaths {
		return path{}
	}
	if c.paths == nil {
		c.paths = make([]pathNode, 0, 8)
	}
	c.paths = append(c.paths, pathNode{key: k, lv: lv, slot: -1})
	return path{ok: true, id: len(c.paths) - 1}
}

// subscript extends list path p by the subscript idx, when it is an int
// literal or a local.
func (c *compiler) subscript(p path, idx *exprCode) path {
	switch {
	case idx.lit != nil:
		return c.step(p, pathKey{field: -1, idx: value(idx.lit).Int64()}, nil)
	case idx.load.local():
		return c.step(p, pathKey{field: -1, local: true, idx: int64(idx.load.lv.slot)}, idx.load.lv)
	}
	return path{}
}

// bindSlot returns the frame slot bound to path p, or 0, the slot that
// stays empty, when p is none. The navigation of a bound path stores the
// record it reaches in the slot; a use navigates only while the slot is
// empty (see recRef). Each local a subscript on the path reads drops the
// binding when assigned.
func (c *compiler) bindSlot(p path) int {
	if !p.ok {
		return 0
	}
	if c.paths[p.id].slot < 0 {
		b := 1 + len(c.params) + c.npaths
		c.npaths++
		c.paths[p.id].slot = b
		for id := p.id; id >= 0; id = c.paths[id].key.parent {
			if lv := c.paths[id].lv; lv != nil {
				if n := len(lv.binds); n == 0 || lv.binds[n-1] != b {
					lv.binds = append(lv.binds, b)
				}
			}
		}
	}
	return c.paths[p.id].slot
}

// param is record parameter p, which its binding slot always holds.
func (c *compiler) param(p int) recRef {
	if c.prefs == nil {
		c.prefs = make([]recRef, len(c.params))
	}
	if c.prefs[p].nav == nil {
		c.prefs[p] = recRef{bind: 1 + p, nav: func(f *frame) *pbio.Record { return f.binds[1+p] }}
	}
	return c.prefs[p]
}

// paramPath is the path of record parameter p, or none in a function body.
func (c *compiler) paramPath(p int) path {
	return path{ok: !c.inFunc, id: -1 - p}
}

// --- statements ---

// stmtCode is a compiled statement. Its static steps, cost, are charged by
// whoever runs it, before run (nil for a statement that only costs). falls
// reports that run always leaves by falling through, or fails the run.
type stmtCode struct {
	pos   Pos
	run   execFn
	cost  int64
	falls bool
	list  []execFn // a sequence's statements, which run runs in order
}

// block is a statement nested in another, a branch or a loop body, which
// runs it with a direct call to exec.
type block stmtCode

func (s stmtCode) block() *block {
	b := block(s)
	return &b
}

// exec charges the statement's cost and runs it.
func (b *block) exec(f *frame) ctl {
	f.charge(b.pos, b.cost)
	switch {
	case b.list != nil:
		for _, x := range b.list {
			if r := x(f); r != ctlNext {
				return r
			}
		}
		return ctlNext
	case b.run != nil:
		return b.run(f)
	default:
		return ctlNext
	}
}

// charged is s as one closure that charges s's cost before running it.
func charged(s stmtCode) execFn { return s.block().exec }

// sequence compiles a statement list, added in order, into one statement.
// Steps are charged once per straight-line run of it: the statements up to
// and including the first that may leave other than by falling through.
// The first run's steps are the sequence's own cost; each later run
// charges its steps on entry. A run that completes is charged exactly what
// its statements would be one by one.
type sequence struct {
	pos   Pos
	xs    []execFn
	head  int64 // the first run's steps
	cost  int64 // the open run's steps
	at    int   // where in xs the open run charges them; -1 for the first
	atPos Pos
	falls bool // every statement so far falls through
	last  bool // the last statement added falls through
	n     int
}

func newSequence(pos Pos) sequence { return sequence{pos: pos, at: -1, falls: true} }

func (q *sequence) add(x stmtCode) {
	if q.n > 0 && !q.last {
		q.close()
		q.at, q.atPos = len(q.xs), x.pos
		q.xs = append(q.xs, nil)
	}
	q.n++
	q.cost += x.cost
	if x.run != nil {
		q.xs = append(q.xs, x.run)
	}
	q.last = x.falls
	q.falls = q.falls && x.falls
}

// close ends the open run.
func (q *sequence) close() {
	if q.at < 0 {
		q.head = q.cost
	} else {
		at, cost := q.atPos, q.cost
		q.xs[q.at] = func(f *frame) ctl {
			f.charge(at, cost)
			return ctlNext
		}
	}
	q.cost = 0
}

func (q *sequence) done() stmtCode {
	q.close()
	s := stmtCode{pos: q.pos, cost: q.head, falls: q.falls}
	switch xs := q.xs; len(xs) {
	case 0:
	case 1:
		s.run = xs[0]
	default:
		s.list = xs
		s.run = func(f *frame) ctl {
			for _, x := range xs {
				if r := x(f); r != ctlNext {
					return r
				}
			}
			return ctlNext
		}
	}
	return s
}

// compileProgram compiles a top-level program: function signatures are
// collected first so functions may call each other (and themselves)
// regardless of definition order; bodies and main statements then compile
// in source order.
func (c *compiler) compileProgram(stmts []stmt) (execFn, error) {
	c.findex = make(map[string]int)
	for _, s := range stmts {
		fd, ok := s.(*funcDecl)
		if !ok {
			continue
		}
		if _, dup := c.findex[fd.name]; dup {
			return nil, compileErrf(fd.pos, "function %q redefined", fd.name)
		}
		if _, isBuiltin := builtinIndex[fd.name]; isBuiltin {
			return nil, compileErrf(fd.pos, "function %q shadows a builtin", fd.name)
		}
		if _, isParam := c.pindex[fd.name]; isParam {
			return nil, compileErrf(fd.pos, "function %q shadows a record parameter", fd.name)
		}
		fn := &ufunc{name: fd.name, result: declTypeOf(fd.ret)}
		for _, p := range fd.params {
			fn.params = append(fn.params, declTypeOf(p.typ))
		}
		c.findex[fd.name] = len(c.funcs)
		c.funcs = append(c.funcs, fn)
	}
	main := newSequence(Pos{})
	for _, s := range stmts {
		if fd, ok := s.(*funcDecl); ok {
			if err := c.compileFunc(fd); err != nil {
				return nil, err
			}
			continue
		}
		x, err := c.compileStmt(s)
		if err != nil {
			return nil, err
		}
		if main.n == 0 {
			main.pos = x.pos // where the first run's charge fails
		}
		main.add(x)
	}
	return charged(main.done()), nil
}

// compileFunc compiles a function body with a fresh local scope whose first
// slots hold the parameters. Falling off the end returns the zero Value,
// whatever the declared type (defined behaviour here, unlike C).
func (c *compiler) compileFunc(fd *funcDecl) error {
	fn := c.funcs[c.findex[fd.name]]

	savedLocals, savedSlots, savedRet := c.locals, c.nslots, c.curRet
	defer func() {
		c.locals, c.nslots, c.curRet, c.inFunc = savedLocals, savedSlots, savedRet, false
	}()
	c.locals = make(map[string]*localVar)
	c.nslots = 0
	c.inFunc = true
	c.curRet = fn.result

	for i, p := range fd.params {
		if _, dup := c.locals[p.name]; dup {
			return compileErrf(p.pos, "duplicate parameter %q", p.name)
		}
		if _, isParam := c.pindex[p.name]; isParam {
			return compileErrf(p.pos, "parameter %q shadows a record parameter", p.name)
		}
		c.locals[p.name] = &localVar{slot: i, typ: declTypeOf(p.typ)}
		c.nslots++
	}
	body, err := c.compileStmt(fd.body)
	if err != nil {
		return err
	}
	fn.body = charged(body)
	fn.nlocals = c.nslots
	return nil
}

// compileStmt compiles one statement. A statement costs one step plus the
// nodes of its own expressions (nested statements are charged for
// themselves), so each loop iteration and each call costs at least one
// step.
func (c *compiler) compileStmt(s stmt) (stmtCode, error) {
	pos := s.stmtPos()
	switch s := s.(type) {
	case *declStmt:
		return c.compileDecl(s)
	case *exprStmt:
		mark := c.nodes
		o, err := c.compileExpr(s.e)
		if err != nil {
			return stmtCode{}, err
		}
		v := o.val()
		return stmtCode{pos: pos, cost: c.cost(mark), falls: true, run: func(f *frame) ctl {
			v(f)
			return ctlNext
		}}, nil
	case *assignStmt:
		return c.compileAssign(s)
	case *ifStmt:
		return c.compileIf(s)
	case *forStmt:
		return c.compileFor(s)
	case *whileStmt:
		return c.compileFor(&forStmt{pos: s.pos, cond: s.cond, body: s.body})
	case *blockStmt:
		q := newSequence(pos)
		for _, s := range s.stmts {
			x, err := c.compileStmt(s)
			if err != nil {
				return stmtCode{}, err
			}
			q.add(x)
		}
		b := q.done()
		b.cost++ // the block's own step
		return b, nil
	case *breakStmt:
		if c.breakable == 0 {
			return stmtCode{}, compileErrf(pos, "break outside loop")
		}
		return stmtCode{pos: pos, cost: 1, run: func(*frame) ctl { return ctlBreak }}, nil
	case *continueStmt:
		// continue targets the nearest enclosing loop, passing through
		// switches (C semantics).
		if c.continuable == 0 {
			return stmtCode{}, compileErrf(pos, "continue outside loop")
		}
		return stmtCode{pos: pos, cost: 1, run: func(*frame) ctl { return ctlContinue }}, nil
	case *doWhileStmt:
		return c.compileDoWhile(s)
	case *switchStmt:
		return c.compileSwitch(s)
	case *returnStmt:
		return c.compileReturn(s)
	case *funcDecl:
		return stmtCode{}, compileErrf(pos, "function definitions are only allowed at the top level")
	default:
		return stmtCode{}, compileErrf(pos, "unsupported statement")
	}
}

func (c *compiler) compileReturn(s *returnStmt) (stmtCode, error) {
	pos := s.pos
	if s.val == nil {
		if c.inFunc && c.curRet.k != tVoid {
			return stmtCode{}, compileErrf(pos, "function must return a %v value", c.curRet)
		}
		return stmtCode{pos: pos, cost: 1, run: func(*frame) ctl { return ctlReturn }}, nil
	}
	mark := c.nodes
	o, err := c.compileExpr(s.val)
	if err != nil {
		return stmtCode{}, err
	}
	v := o.val()
	if c.inFunc {
		if c.curRet.k == tVoid {
			return stmtCode{}, compileErrf(pos, "void function cannot return a value")
		}
		if v, err = convertForStore(&o, c.curRet, pos); err != nil {
			return stmtCode{}, err
		}
	}
	return stmtCode{pos: pos, cost: c.cost(mark), run: func(f *frame) ctl {
		f.ret = v(f)
		return ctlReturn
	}}, nil
}

func (c *compiler) compileDecl(s *declStmt) (stmtCode, error) {
	mark := c.nodes
	dt := declTypeOf(s.typ)
	var inits []execFn
	for _, item := range s.items {
		if _, exists := c.locals[item.name]; exists {
			return stmtCode{}, compileErrf(item.pos, "redeclaration of %q", item.name)
		}
		if _, isParam := c.pindex[item.name]; isParam {
			return stmtCode{}, compileErrf(item.pos, "%q shadows a record parameter", item.name)
		}
		lv := &localVar{slot: c.nslots, typ: dt}
		c.nslots++
		c.locals[item.name] = lv
		if item.init == nil {
			continue
		}
		o, err := c.compileExpr(item.init)
		if err != nil {
			return stmtCode{}, err
		}
		set, err := setLocal(lv, &o, item.pos)
		if err != nil {
			return stmtCode{}, err
		}
		inits = append(inits, set)
	}
	d := stmtCode{pos: s.pos, cost: c.cost(mark), falls: true}
	switch len(inits) {
	case 0:
	case 1:
		d.run = inits[0]
	default:
		d.run = func(f *frame) ctl {
			for _, set := range inits {
				set(f)
			}
			return ctlNext
		}
	}
	return d, nil
}

// setLocal compiles storing o into local lv, converted to its type, and
// dropping the path bindings that read it.
func setLocal(lv *localVar, o *exprCode, pos Pos) (execFn, error) {
	slot := lv.slot
	switch {
	case lv.typ.k == tInt && o.step != nil:
		a := *o.step // i++ and its kin
		return func(f *frame) ctl {
			f.locals[slot].setInt(a.get(f))
			lv.drop(f)
			return ctlNext
		}, nil
	case lv.typ.k == tInt && o.t.k == tInt && !o.boxes():
		i := o.int() // computed, so of kind Integer when boxed
		return func(f *frame) ctl {
			f.locals[slot].setInt(i(f))
			lv.drop(f)
			return ctlNext
		}, nil
	case lv.typ.k == tInt && o.t.k == tFloat:
		d := o.float()
		return func(f *frame) ctl {
			f.locals[slot].setInt(int64(d(f)))
			lv.drop(f)
			return ctlNext
		}, nil
	case lv.typ.k == tFloat && o.t.isNumeric():
		d := o.float()
		return func(f *frame) ctl {
			f.locals[slot].setFloat(d(f))
			lv.drop(f)
			return ctlNext
		}, nil
	case lv.typ.k == o.t.k:
		v := o.val()
		return func(f *frame) ctl {
			f.locals[slot].set(v(f))
			lv.drop(f)
			return ctlNext
		}, nil
	default:
		return nil, compileErrf(pos, "cannot assign %v to %v", o.t, lv.typ)
	}
}

// drop empties the binding slots whose paths read lv.
func (lv *localVar) drop(f *frame) {
	for _, b := range lv.binds {
		f.binds[b] = nil
	}
}

// convertForStore boxes o for a slot of type want, converting between int
// and double, or reports an incompatibility.
func convertForStore(o *exprCode, want etype, pos Pos) (valFn, error) {
	switch {
	case o.t.k == want.k:
		return o.val(), nil
	case o.t.k == tInt && want.k == tFloat:
		d := o.float()
		return func(f *frame) pbio.Value { return pbio.Float64(d(f)) }, nil
	case o.t.k == tFloat && want.k == tInt:
		i := o.int()
		return func(f *frame) pbio.Value { return pbio.Int(i(f)) }, nil
	default:
		return nil, compileErrf(pos, "cannot assign %v to %v", o.t, want)
	}
}

// compoundOps maps each compound assignment to its binary operator.
var compoundOps = map[tokKind]tokKind{
	tokPlusEq: tokPlus, tokMinusEq: tokMinus, tokStarEq: tokStar,
	tokSlashEq: tokSlash, tokPercentEq: tokPercent,
}

func (c *compiler) compileAssign(s *assignStmt) (stmtCode, error) {
	// Desugar compound assignment: "lhs op= rhs" → "lhs = lhs op rhs".
	rhs := s.rhs
	if op, ok := compoundOps[s.op]; ok {
		rhs = &binaryExpr{pos: s.pos, op: op, l: s.lhs, r: s.rhs}
	} else if s.op != tokAssign {
		return stmtCode{}, compileErrf(s.pos, "unsupported assignment operator %v", s.op)
	}

	switch lhs := s.lhs.(type) {
	case *identExpr:
		lv, ok := c.locals[lhs.name]
		if !ok {
			if _, isParam := c.pindex[lhs.name]; isParam {
				return stmtCode{}, compileErrf(lhs.pos, "cannot reassign record parameter %q; assign its fields instead", lhs.name)
			}
			return stmtCode{}, compileErrf(lhs.pos, "undefined variable %q", lhs.name)
		}
		mark := c.nodes
		o, err := c.compileExpr(rhs)
		if err != nil {
			return stmtCode{}, err
		}
		set, err := setLocal(lv, &o, s.pos)
		if err != nil {
			return stmtCode{}, err
		}
		return stmtCode{pos: s.pos, cost: c.cost(mark), falls: true, run: set}, nil

	case *fieldExpr, *indexExpr:
		return c.compileStorePath(s.lhs, rhs, s.pos)

	default:
		return stmtCode{}, compileErrf(s.pos, "left side of assignment is not assignable")
	}
}

// pathSeg is one navigation step of an lvalue: a field of the current
// record, optionally subscripted.
type pathSeg struct {
	pos   Pos
	field string
	idx   expr // nil if no subscript
}

// splitPath decomposes an lvalue like base.f1[i].f2 into the base parameter
// and its segments.
func (c *compiler) splitPath(e expr) (baseParam int, segs []pathSeg, err error) {
	var walk func(e expr) error
	walk = func(e expr) error {
		switch e := e.(type) {
		case *identExpr:
			p, ok := c.pindex[e.name]
			if !ok {
				if _, isLocal := c.locals[e.name]; isLocal {
					return compileErrf(e.pos, "%q is a scalar local, not a record", e.name)
				}
				return compileErrf(e.pos, "undefined record %q", e.name)
			}
			baseParam = p
			return nil
		case *fieldExpr:
			if err := walk(e.base); err != nil {
				return err
			}
			segs = append(segs, pathSeg{pos: e.pos, field: e.name})
			return nil
		case *indexExpr:
			if err := walk(e.base); err != nil {
				return err
			}
			if len(segs) == 0 {
				return compileErrf(e.pos, "cannot subscript a record parameter")
			}
			last := &segs[len(segs)-1]
			if last.idx != nil {
				return compileErrf(e.pos, "multiple subscripts on one field are not supported")
			}
			last.idx = e.idx
			return nil
		default:
			return compileErrf(e.exprPos(), "left side of assignment is not assignable")
		}
	}
	if err := walk(e); err != nil {
		return 0, nil, err
	}
	return baseParam, segs, nil
}

// compileStorePath compiles "base.f1[i]...fn [op]= rhs". At run time the
// path is navigated first, growing lists it subscripts past their end, then
// the right side is evaluated and stored.
func (c *compiler) compileStorePath(lhs, rhs expr, pos Pos) (stmtCode, error) {
	mark := c.nodes
	baseParam, segs, err := c.splitPath(foldExpr(lhs))
	if err != nil {
		return stmtCode{}, err
	}
	format := c.params[baseParam].Format
	ref := c.param(baseParam)
	p := c.paramPath(baseParam)

	// Navigate all segments but the last.
	for i, seg := range segs[:len(segs)-1] {
		fidx := format.Lookup(seg.field)
		if fidx < 0 {
			return stmtCode{}, compileErrf(seg.pos, "format %q has no field %q", format.Name(), seg.field)
		}
		fld, outer := format.Field(fidx), ref
		p = c.step(p, pathKey{field: fidx}, nil)
		if seg.idx == nil {
			if fld.Kind != pbio.Complex {
				return stmtCode{}, compileErrf(seg.pos, "field %q is not a record; only the final path segment may be a scalar", seg.field)
			}
			ref = unbound(func(f *frame) *pbio.Record { return outer.get(f).GetIndex(fidx).Record() })
			format = fld.Sub
			continue
		}
		if fld.Kind != pbio.List || fld.Elem.Kind != pbio.Complex {
			return stmtCode{}, compileErrf(seg.pos, "field %q is not a list of records", seg.field)
		}
		ic, err := c.compileIndex(seg.idx, seg.pos)
		if err != nil {
			return stmtCode{}, err
		}
		if i == 0 {
			c.grows(baseParam, fidx)
		}
		idx := ic.arg()
		at, size := seg.pos, elemSize(fld.Elem)
		p = c.subscript(p, &ic)
		b := c.bindSlot(p)
		ref = recRef{bind: b, nav: func(f *frame) *pbio.Record {
			rec := outer.get(f)
			elem, err := rec.NavListElem(fidx, f.grow(at, rec, fidx, idx.get(f), size), &f.slab)
			if err != nil {
				fail(at, "%v", err)
			}
			if b != 0 {
				f.binds[b] = elem
			}
			return elem
		}}
		format = fld.Elem.Sub
	}

	last := segs[len(segs)-1]
	fidx := format.Lookup(last.field)
	if fidx < 0 {
		return stmtCode{}, compileErrf(last.pos, "format %q has no field %q", format.Name(), last.field)
	}
	fld := format.Field(fidx)

	if last.idx != nil {
		// dst.list[i] = rhs
		if fld.Kind != pbio.List {
			return stmtCode{}, compileErrf(last.pos, "field %q is not a list", last.field)
		}
		ic, err := c.compileIndex(last.idx, last.pos)
		if err != nil {
			return stmtCode{}, err
		}
		if len(segs) == 1 {
			c.grows(baseParam, fidx)
		}
		idx := ic.arg()
		o, err := c.compileFieldStore(rhs, fld.Elem, last.pos)
		if err != nil {
			return stmtCode{}, err
		}
		v, size, replaces := o.val(), elemSize(fld.Elem), fld.Elem.Kind == pbio.Complex || fld.Elem.Kind == pbio.List
		return stmtCode{pos: pos, cost: c.cost(mark), falls: true, run: func(f *frame) ctl {
			rec := ref.get(f)
			i := idx.get(f)
			x := v(f)
			if err := rec.SetListElem(fidx, f.grow(pos, rec, fidx, i, size), x); err != nil {
				fail(pos, "%v", err)
			}
			if replaces {
				clear(f.paths)
			}
			return ctlNext
		}}, nil
	}

	// dst.field = rhs
	o, err := c.compileFieldStore(rhs, fld, last.pos)
	if err != nil {
		return stmtCode{}, err
	}
	store := stmtCode{pos: pos, cost: c.cost(mark), falls: true}
	switch l := o.load; {
	case l.rec.nav != nil:
		// dst.field = src.field, the copy Figure 5 is made of, in one closure.
		src, sidx := l.rec, l.fidx
		store.run = func(f *frame) ctl {
			rec := ref.get(f)
			if err := rec.SetIndex(fidx, src.get(f).GetIndex(sidx)); err != nil {
				fail(pos, "%v", err)
			}
			return ctlNext
		}
	case o.isInt():
		i := o.arg()
		store.run = func(f *frame) ctl {
			rec := ref.get(f)
			if err := rec.SetIndex(fidx, pbio.Int(i.get(f))); err != nil {
				fail(pos, "%v", err)
			}
			return ctlNext
		}
	default:
		v, replaces := o.val(), fld.Kind == pbio.Complex || fld.Kind == pbio.List
		store.run = func(f *frame) ctl {
			rec := ref.get(f)
			if err := rec.SetIndex(fidx, v(f)); err != nil {
				fail(pos, "%v", err)
			}
			if replaces {
				clear(f.paths)
			}
			return ctlNext
		}
	}
	return store, nil
}

// elemAt is list element i, which a read requires to exist.
func elemAt(list []pbio.Value, i int64, pos Pos) pbio.Value {
	if i < 0 || i >= int64(len(list)) {
		outOfRange(pos, i, len(list))
	}
	return list[i]
}

func outOfRange(pos Pos, i int64, n int) { panic(runFailure{rangeError(pos, i, n)}) }

// rangeError is the error of a read of list element i at pos, in a list
// of n elements.
func rangeError(pos Pos, i int64, n int) error {
	return runError(pos, "list index %d out of range (length %d)", i, n)
}

// compileIndex compiles an already folded subscript, which must be an int.
func (c *compiler) compileIndex(e expr, pos Pos) (exprCode, error) {
	o, err := c.expr(e)
	if err != nil {
		return exprCode{}, err
	}
	if o.t.k != tInt {
		return exprCode{}, compileErrf(pos, "list index must be an int, got %v", o.t)
	}
	return o, nil
}

// compileFieldStore compiles rhs for a store into fld, deep-copying records
// and lists so the destination never aliases its source. A copy is charged
// the Values it creates before it is made.
func (c *compiler) compileFieldStore(rhs expr, fld *pbio.Field, pos Pos) (exprCode, error) {
	o, err := c.compileExpr(rhs)
	if err != nil {
		return exprCode{}, err
	}
	rt, want := o.t, fieldType(fld)
	switch want.k {
	case tInt, tFloat:
		if !rt.isNumeric() {
			return exprCode{}, compileErrf(pos, "cannot assign %v to numeric field %q", rt, fld.Name)
		}
		// The value goes to pbio as it is, and pbio's store coerces it into
		// the field's kind and width, exactly as a conversion plan's copy
		// does: a double stored into a boolean field is true when non-zero,
		// an unsigned one into a double field keeps its sign.
		return o, nil
	case tStr:
		if rt.k != tStr {
			return exprCode{}, compileErrf(pos, "cannot assign %v to string field %q", rt, fld.Name)
		}
		return o, nil
	case tRec:
		if rt.k != tRec || !rt.format.SameStructure(want.format) {
			return exprCode{}, compileErrf(pos, "cannot assign %v to record field %q of format %q (structures must match; otherwise assign field-by-field)",
				rt, fld.Name, want.format.Name())
		}
	case tList:
		if rt.k != tList || !sameElem(rt.elem, want.elem) {
			return exprCode{}, compileErrf(pos, "cannot assign %v to list field %q (element types must match; otherwise copy element-wise)", rt, fld.Name)
		}
	default:
		return exprCode{}, compileErrf(pos, "field %q is not assignable", fld.Name)
	}
	v := o.val()
	return exprCode{t: rt, fn: valFn(func(f *frame) pbio.Value {
		x := v(f)
		f.charge(pos, values(x))
		return x.Clone()
	})}, nil
}

func sameElem(a, b *pbio.Field) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case pbio.Complex:
		return a.Sub.SameStructure(b.Sub)
	case pbio.List:
		return sameElem(a.Elem, b.Elem)
	default:
		return a.Size == b.Size
	}
}

func (c *compiler) compileIf(s *ifStmt) (stmtCode, error) {
	mark := c.nodes
	cond, err := c.compileCond(s.cond)
	if err != nil {
		return stmtCode{}, err
	}
	cost := c.cost(mark)
	then, err := c.compileStmt(s.then)
	if err != nil {
		return stmtCode{}, err
	}
	els := stmtCode{falls: true}
	if s.els != nil {
		if els, err = c.compileStmt(s.els); err != nil {
			return stmtCode{}, err
		}
	}
	runThen, runElse := then.block(), els.block()
	return stmtCode{pos: s.pos, cost: cost, falls: then.falls && els.falls, run: func(f *frame) ctl {
		if cond(f) {
			return runThen.exec(f)
		}
		return runElse.exec(f)
	}}, nil
}

// loopBody compiles the body of a loop, inside which break and continue
// both apply.
func (c *compiler) loopBody(s stmt) (*block, error) {
	c.breakable++
	c.continuable++
	defer func() { c.breakable--; c.continuable-- }()
	body, err := c.compileStmt(s)
	if err != nil {
		return nil, err
	}
	return body.block(), nil
}

func (c *compiler) compileFor(s *forStmt) (stmtCode, error) {
	// The init and post clauses are simple statements, which fall through:
	// the loop's entry charges init's steps, and each iteration after the
	// first charges post's with the test's.
	loop := stmtCode{pos: s.pos, cost: 1}
	var init execFn
	if s.init != nil {
		x, err := c.compileStmt(s.init)
		if err != nil {
			return stmtCode{}, err
		}
		loop.cost += x.cost
		init = x.run
	}
	mark := c.nodes
	var cond boolFn
	if s.cond != nil {
		var err error
		if cond, err = c.compileCond(s.cond); err != nil {
			return stmtCode{}, err
		}
	}
	test := c.cost(mark) // charged per iteration
	body, err := c.loopBody(s.body)
	if err != nil {
		return stmtCode{}, err
	}
	var post execFn
	next := test
	if s.post != nil {
		x, err := c.compileStmt(s.post)
		if err != nil {
			return stmtCode{}, err
		}
		post, next = x.run, next+x.cost
	}
	pos := s.pos
	loop.run = func(f *frame) ctl {
		if init != nil {
			init(f)
		}
		f.charge(pos, test)
		for {
			if cond != nil && !cond(f) {
				return ctlNext
			}
			switch body.exec(f) {
			case ctlBreak:
				return ctlNext
			case ctlReturn:
				return ctlReturn
			}
			f.charge(pos, next)
			if post != nil {
				post(f)
			}
		}
	}
	return loop, nil
}

// compileDoWhile compiles C's do/while: the body runs once before the
// condition is first tested; continue re-tests the condition.
func (c *compiler) compileDoWhile(s *doWhileStmt) (stmtCode, error) {
	body, err := c.loopBody(s.body)
	if err != nil {
		return stmtCode{}, err
	}
	mark := c.nodes
	cond, err := c.compileCond(s.cond)
	if err != nil {
		return stmtCode{}, err
	}
	pos, test := s.pos, c.cost(mark)
	return stmtCode{pos: pos, cost: 1, run: func(f *frame) ctl {
		for {
			switch body.exec(f) {
			case ctlBreak:
				return ctlNext
			case ctlReturn:
				return ctlReturn
			}
			f.charge(pos, test)
			if !cond(f) {
				return ctlNext
			}
		}
	}}, nil
}

// compileSwitch compiles C's switch with fallthrough. Case labels must fold
// to integer constants; the arms' statements run as one list from the
// matching label's arm on, each charged as it runs.
func (c *compiler) compileSwitch(s *switchStmt) (stmtCode, error) {
	mark := c.nodes
	o, err := c.compileExpr(s.cond)
	if err != nil {
		return stmtCode{}, err
	}
	if o.t.k != tInt {
		return stmtCode{}, compileErrf(s.pos, "switch expression must be an int, got %v", o.t)
	}
	cond, cost := o.int(), c.cost(mark)

	c.breakable++
	defer func() { c.breakable-- }()
	starts := make(map[int64]int) // case label → body index where its arm starts
	deflt := -1
	var body []execFn
	for _, cs := range s.cases {
		if cs.isDefault {
			deflt = len(body)
		} else {
			lit, ok := foldExpr(cs.val).(*intLit)
			if !ok {
				return stmtCode{}, compileErrf(cs.pos, "case label must be an integer constant expression")
			}
			if _, dup := starts[lit.v]; dup {
				return stmtCode{}, compileErrf(cs.pos, "duplicate case value %d", lit.v)
			}
			starts[lit.v] = len(body)
		}
		for _, s := range cs.body {
			x, err := c.compileStmt(s)
			if err != nil {
				return stmtCode{}, err
			}
			body = append(body, charged(x))
		}
	}
	return stmtCode{pos: s.pos, cost: cost, run: func(f *frame) ctl {
		from, ok := starts[cond(f)]
		if !ok {
			from = deflt
		}
		if from < 0 {
			return ctlNext
		}
		for _, x := range body[from:] {
			switch r := x(f); r {
			case ctlNext:
			case ctlBreak:
				return ctlNext
			default:
				return r
			}
		}
		return ctlNext
	}}, nil
}

// compileCond compiles a statement's condition, which must have a
// truthiness (int, float or string — like C, where any scalar works).
func (c *compiler) compileCond(e expr) (boolFn, error) {
	o, err := c.compileExpr(e)
	if err != nil {
		return nil, err
	}
	if err := checkCond(e.exprPos(), o.t); err != nil {
		return nil, err
	}
	return o.cond(), nil
}

func checkCond(pos Pos, t etype) error {
	if t.k == tRec || t.k == tList || t.k == tVoid {
		return compileErrf(pos, "%v cannot be used as a condition", t)
	}
	return nil
}

// --- expressions ---

// compileExpr compiles an expression that is not part of a larger one,
// constant-folding the whole tree first.
func (c *compiler) compileExpr(e expr) (exprCode, error) {
	return c.expr(foldExpr(e))
}

// expr compiles an already folded expression.
func (c *compiler) expr(e expr) (exprCode, error) {
	var o exprCode
	_, err := c.pathExpr(e, &o)
	return o, err
}

// pathExpr compiles an already folded expression into o, and returns its
// path when it is a record or list the program may bind (see bindSlot). A
// selector or subscript compiles its base into o first, so a chain of them
// builds its code in one place.
func (c *compiler) pathExpr(e expr, o *exprCode) (path, error) {
	c.nodes++
	var err error
	switch e := e.(type) {
	case *intLit:
		*o = literal(e, etype{k: tInt})
	case *floatLit:
		*o = literal(e, etype{k: tFloat})
	case *strLit:
		*o = literal(e, etype{k: tStr})
	case *identExpr:
		if lv, ok := c.locals[e.name]; ok {
			*o = exprCode{t: lv.typ, load: load{lv: lv}}
			return path{}, nil
		}
		if p, ok := c.pindex[e.name]; ok {
			*o = exprCode{t: etype{k: tRec, format: c.params[p].Format}, r: c.param(p)}
			return c.paramPath(p), nil
		}
		return path{}, compileErrf(e.pos, "undefined variable %q", e.name)
	case *fieldExpr:
		bp, err := c.pathExpr(e.base, o)
		if err != nil {
			return path{}, err
		}
		if o.t.k != tRec {
			return path{}, compileErrf(e.pos, "%v has no fields", o.t)
		}
		fidx := o.t.format.Lookup(e.name)
		if fidx < 0 {
			return path{}, compileErrf(e.pos, "format %q has no field %q", o.t.format.Name(), e.name)
		}
		rec, t := o.rec(), fieldType(o.t.format.Field(fidx))
		switch t.k {
		case tRec:
			*o = exprCode{t: t, r: unbound(func(f *frame) *pbio.Record { return rec.get(f).GetIndex(fidx).Record() })}
		case tList:
			*o = exprCode{t: t, load: load{rec: rec, fidx: fidx}}
		default:
			*o = exprCode{t: t, load: load{rec: rec, fidx: fidx}}
			return path{}, nil
		}
		return c.step(bp, pathKey{field: fidx}, nil), nil
	case *indexExpr:
		bp, err := c.pathExpr(e.base, o)
		if err != nil {
			return path{}, err
		}
		if o.t.k != tList {
			return path{}, compileErrf(e.pos, "%v is not subscriptable", o.t)
		}
		pos, base := e.pos, o.load
		ic, err := c.compileIndex(e.idx, pos)
		if err != nil {
			return path{}, err
		}
		idx, t := ic.arg(), fieldType(o.t.elem)
		var list valFn
		if base.rec.nav == nil {
			list = o.val()
		}
		if t.k != tRec {
			if list == nil {
				list = o.val()
			}
			*o = exprCode{t: t, fn: valFn(func(f *frame) pbio.Value { return elemAt(list(f).List(), idx.get(f), pos) })}
			return path{}, nil
		}
		p := c.subscript(bp, &ic)
		b := c.bindSlot(p)
		var nav recFn
		if list == nil {
			rec, fidx := base.rec, base.fidx // a list field, read in place
			nav = func(f *frame) *pbio.Record {
				r := elemAt(rec.get(f).GetIndex(fidx).List(), idx.get(f), pos).Record()
				if b != 0 {
					f.binds[b] = r
				}
				return r
			}
		} else {
			nav = func(f *frame) *pbio.Record {
				r := elemAt(list(f).List(), idx.get(f), pos).Record()
				if b != 0 {
					f.binds[b] = r
				}
				return r
			}
		}
		*o = exprCode{t: t, r: recRef{bind: b, nav: nav}}
		return p, nil
	case *callExpr:
		*o, err = c.compileCall(e)
	case *unaryExpr:
		*o, err = c.compileUnary(e)
	case *binaryExpr:
		*o, err = c.compileBinary(e)
	case *condExpr:
		*o, err = c.compileTernary(e)
	default:
		err = compileErrf(e.exprPos(), "unsupported expression")
	}
	return path{}, err
}

func (c *compiler) compileUnary(e *unaryExpr) (exprCode, error) {
	x, err := c.expr(e.x)
	if err != nil {
		return exprCode{}, err
	}
	switch e.op {
	case tokMinus:
		switch x.t.k {
		case tInt:
			i := x.int()
			return exprCode{t: x.t, fn: intFn(func(f *frame) int64 { return -i(f) })}, nil
		case tFloat:
			d := x.float()
			return exprCode{t: x.t, fn: floatFn(func(f *frame) float64 { return -d(f) })}, nil
		default:
			return exprCode{}, compileErrf(e.pos, "cannot negate %v", x.t)
		}
	case tokNot:
		if checkCond(e.pos, x.t) != nil {
			return exprCode{}, compileErrf(e.pos, "cannot apply '!' to %v", x.t)
		}
		b := x.cond()
		return exprCode{t: etype{k: tInt}, fn: boolFn(func(f *frame) bool { return !b(f) })}, nil
	default:
		return exprCode{}, compileErrf(e.pos, "unsupported unary operator")
	}
}

func (c *compiler) compileBinary(e *binaryExpr) (exprCode, error) {
	l, err := c.expr(e.l)
	if err != nil {
		return exprCode{}, err
	}
	if e.op == tokAndAnd || e.op == tokOrOr {
		if err := checkCond(e.l.exprPos(), l.t); err != nil {
			return exprCode{}, err
		}
	}
	r, err := c.expr(e.r)
	if err != nil {
		return exprCode{}, err
	}
	op, pos, lt, rt := e.op, e.pos, l.t, r.t
	intT := etype{k: tInt}
	switch op {
	case tokAndAnd, tokOrOr:
		if err := checkCond(e.r.exprPos(), rt); err != nil {
			return exprCode{}, err
		}
		lc, rc := l.cond(), r.cond()
		if op == tokAndAnd {
			return exprCode{t: intT, fn: boolFn(func(f *frame) bool { return lc(f) && rc(f) })}, nil
		}
		return exprCode{t: intT, fn: boolFn(func(f *frame) bool { return lc(f) || rc(f) })}, nil
	case tokPercent:
		if lt.k != tInt || rt.k != tInt {
			return exprCode{}, compileErrf(pos, "operands of %% must be ints, got %v and %v", lt, rt)
		}
	default:
		// Arithmetic and comparison promote an int exprCode to double when
		// the other one is a double.
		if lt.k == tInt && rt.k == tFloat {
			lt = rt
		} else if lt.k == tFloat && rt.k == tInt {
			rt = lt
		}
	}

	switch op {
	case tokEq, tokNeq, tokLt, tokLe, tokGt, tokGe:
		switch {
		case lt.k == tInt && rt.k == tInt:
			return exprCode{t: intT, fn: compare(op, l.arg(), r.arg())}, nil
		case lt.k == tFloat && rt.k == tFloat:
			return exprCode{t: intT, fn: compareFloat(op, l.float(), r.float())}, nil
		case lt.k == tStr && rt.k == tStr:
			a, b, rel := l.str(), r.str(), relation(op)
			return exprCode{t: intT, fn: boolFn(func(f *frame) bool {
				x, y := a(f), b(f)
				f.charge(pos, int64(min(len(x), len(y)))) // the bytes compared
				return rel(x, y)
			})}, nil
		}
		return exprCode{}, compileErrf(pos, "cannot compare %v with %v", lt, rt)
	}
	switch {
	case lt.k == tStr && rt.k == tStr && op == tokPlus:
		a, b := l.str(), r.str()
		return exprCode{t: lt, fn: strFn(func(f *frame) string {
			s := a(f) + b(f)
			f.charge(pos, int64(len(s)))
			return s
		})}, nil
	case lt.k == tInt && rt.k == tInt && (op == tokSlash || op == tokPercent):
		a, b := l.arg(), r.arg()
		what := "division"
		if op == tokPercent {
			what = "modulo"
		}
		return exprCode{t: intT, fn: intFn(func(f *frame) int64 {
			x, y := a.get(f), b.get(f)
			if y == 0 {
				fail(pos, "integer %s by zero", what)
			}
			if op == tokSlash {
				return x / y
			}
			return x % y
		})}, nil
	case lt.k == tInt && rt.k == tInt:
		return arith(op, l.arg(), &r), nil
	case lt.k == tFloat && rt.k == tFloat:
		return exprCode{t: lt, fn: arithFloat(op, l.float(), r.float())}, nil
	}
	return exprCode{}, compileErrf(pos, "invalid operands %v and %v", lt, rt)
}

func (c *compiler) compileTernary(e *condExpr) (exprCode, error) {
	cond, err := c.expr(e.cond)
	if err != nil {
		return exprCode{}, err
	}
	if err := checkCond(e.cond.exprPos(), cond.t); err != nil {
		return exprCode{}, err
	}
	t, err := c.expr(e.t)
	if err != nil {
		return exprCode{}, err
	}
	fl, err := c.expr(e.f)
	if err != nil {
		return exprCode{}, err
	}
	// An int branch is promoted when the other one is a double.
	tt, ft := t.t, fl.t
	if tt.k == tInt && ft.k == tFloat {
		tt = ft
	} else if tt.k == tFloat && ft.k == tInt {
		ft = tt
	}
	if ft.k != tt.k {
		return exprCode{}, compileErrf(e.pos, "ternary branches have incompatible types %v and %v", tt, ft)
	}
	c1, o := cond.cond(), exprCode{t: tt}
	switch tt.k {
	case tInt:
		if t.boxes() || fl.boxes() {
			// A branch that reads a field or a local keeps its pbio kind
			// when it is stored or returned.
			o.fn = valFn(choose(c1, t.val(), fl.val()))
		} else {
			o.fn = intFn(choose(c1, t.int(), fl.int()))
		}
	case tFloat:
		o.fn = floatFn(choose(c1, t.float(), fl.float()))
	case tStr:
		o.fn = strFn(choose(c1, t.str(), fl.str()))
	case tRec:
		tr, fr := t.rec(), fl.rec()
		o.r = unbound(func(f *frame) *pbio.Record {
			if c1(f) {
				return tr.get(f)
			}
			return fr.get(f)
		})
	default:
		o.fn = valFn(choose(c1, t.val(), fl.val()))
	}
	return o, nil
}

func (c *compiler) compileCall(e *callExpr) (exprCode, error) {
	if fi, ok := c.findex[e.name]; ok {
		return c.compileUserCall(e, c.funcs[fi])
	}
	bi, ok := builtinIndex[e.name]
	if !ok {
		return exprCode{}, compileErrf(e.pos, "unknown function %q", e.name)
	}
	b := &builtins[bi]
	if len(e.args) != len(b.args) {
		return exprCode{}, compileErrf(e.pos, "%s expects %d argument(s), got %d", b.name, len(b.args), len(e.args))
	}
	args := make([]valFn, len(e.args))
	for i, arg := range e.args {
		o, err := c.expr(arg)
		if err != nil {
			return exprCode{}, err
		}
		switch want, at := b.args[i], o.t; {
		case want == tAnyLen:
			if at.k != tStr && at.k != tList {
				return exprCode{}, compileErrf(arg.exprPos(), "%s argument %d must be a string or list, got %v", b.name, i+1, at)
			}
			args[i] = o.val()
		case want == tInt && at.k == tFloat:
			n := o.int()
			args[i] = func(f *frame) pbio.Value { return pbio.Int(n(f)) }
		case want == tFloat && at.k == tInt:
			d := o.float()
			args[i] = func(f *frame) pbio.Value { return pbio.Float64(d(f)) }
		case want != at.k:
			return exprCode{}, compileErrf(arg.exprPos(), "%s argument %d must be %v, got %v", b.name, i+1, want, at)
		default:
			args[i] = o.val()
		}
	}
	pos := e.pos
	return exprCode{t: etype{k: b.result}, fn: valFn(func(f *frame) pbio.Value {
		var a builtinArgs
		var read int64 // the string bytes the builtin is handed
		for i, x := range args {
			a[i] = x(f)
			read += int64(len(a[i].Strval()))
		}
		f.charge(pos, read)
		v, err := b.fn(a)
		if err != nil {
			fail(pos, "%s: %v", b.name, err)
		}
		f.charge(pos, int64(len(v.Strval()))) // the bytes of a string result
		return v
	})}, nil
}

// compileUserCall compiles a call of a user-defined function. The callee
// runs on the caller's frame with its own locals; fn.body is read at run
// time because the callee may not be compiled yet (forward references,
// recursion). The callee may store through the record parameters, so the
// call drops every path binding when it returns.
func (c *compiler) compileUserCall(e *callExpr, fn *ufunc) (exprCode, error) {
	if len(e.args) != len(fn.params) {
		return exprCode{}, compileErrf(e.pos, "%s expects %d argument(s), got %d", fn.name, len(fn.params), len(e.args))
	}
	args := make([]valFn, len(e.args))
	for i, arg := range e.args {
		o, err := c.expr(arg)
		if err != nil {
			return exprCode{}, err
		}
		if args[i], err = convertForStore(&o, fn.params[i], arg.exprPos()); err != nil {
			return exprCode{}, compileErrf(arg.exprPos(), "%s argument %d: cannot pass %v as %v", fn.name, i+1, o.t, fn.params[i])
		}
	}
	pos := e.pos
	return exprCode{t: fn.result, fn: valFn(func(f *frame) pbio.Value {
		locals := make([]local, fn.nlocals)
		for i, x := range args {
			locals[i].set(x(f))
		}
		if f.depth >= maxCallDepth {
			fail(pos, "call depth %d exceeded in %q (runaway recursion)", maxCallDepth, fn.name)
		}
		caller := f.locals
		f.locals = locals
		f.depth++
		fn.body(f)
		f.depth--
		f.locals = caller
		clear(f.paths)
		v := f.ret
		f.ret = pbio.Value{}
		return v
	})}, nil
}
