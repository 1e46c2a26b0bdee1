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
// type-checks it: an expression becomes an evalFn that computes its value
// against the run's frame, a statement an execFn that reports how control
// leaves it. Field references are resolved to indices here, so running a
// Program does no name lookups.
type (
	evalFn func(*frame) pbio.Value
	execFn func(*frame) ctl
)

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

	// nodes counts the expression closures built so far. Each runs at most
	// once per evaluation of its expression, so charging a statement for
	// the closures of its own expressions bounds the work it does.
	nodes int64
}

// cost is what one run of the expressions compiled since mark is charged:
// one step, plus one per closure.
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

// --- statements ---

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
	var main []execFn
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
		main = append(main, x)
	}
	return sequence(main), nil
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
	fn.body = body
	fn.nlocals = c.nslots
	return nil
}

// sequence runs statements in order until one leaves other than by falling
// through.
func sequence(list []execFn) execFn {
	return func(f *frame) ctl {
		for _, x := range list {
			if r := x(f); r != ctlNext {
				return r
			}
		}
		return ctlNext
	}
}

func (c *compiler) compileStmts(stmts []stmt) ([]execFn, error) {
	list := make([]execFn, 0, len(stmts))
	for _, s := range stmts {
		x, err := c.compileStmt(s)
		if err != nil {
			return nil, err
		}
		list = append(list, x)
	}
	return list, nil
}

// compileStmt compiles one statement. Every statement's closure is charged
// before it does anything else: one step plus the closures of its own
// expressions (nested statements charge for themselves), so each loop
// iteration and each call costs at least one step.
func (c *compiler) compileStmt(s stmt) (execFn, error) {
	pos := s.stmtPos()
	switch s := s.(type) {
	case *declStmt:
		return c.compileDecl(s)
	case *exprStmt:
		mark := c.nodes
		v, _, err := c.compileExpr(s.e)
		if err != nil {
			return nil, err
		}
		cost := c.cost(mark)
		return func(f *frame) ctl {
			f.charge(pos, cost)
			v(f)
			return ctlNext
		}, nil
	case *assignStmt:
		return c.compileAssign(s)
	case *ifStmt:
		return c.compileIf(s)
	case *forStmt:
		return c.compileFor(s)
	case *whileStmt:
		return c.compileFor(&forStmt{pos: s.pos, cond: s.cond, body: s.body})
	case *blockStmt:
		list, err := c.compileStmts(s.stmts)
		if err != nil {
			return nil, err
		}
		run := sequence(list)
		return func(f *frame) ctl {
			f.charge(pos, 1)
			return run(f)
		}, nil
	case *breakStmt:
		if c.breakable == 0 {
			return nil, compileErrf(pos, "break outside loop")
		}
		return func(f *frame) ctl {
			f.charge(pos, 1)
			return ctlBreak
		}, nil
	case *continueStmt:
		// continue targets the nearest enclosing loop, passing through
		// switches (C semantics).
		if c.continuable == 0 {
			return nil, compileErrf(pos, "continue outside loop")
		}
		return func(f *frame) ctl {
			f.charge(pos, 1)
			return ctlContinue
		}, nil
	case *doWhileStmt:
		return c.compileDoWhile(s)
	case *switchStmt:
		return c.compileSwitch(s)
	case *returnStmt:
		return c.compileReturn(s)
	case *funcDecl:
		return nil, compileErrf(pos, "function definitions are only allowed at the top level")
	default:
		return nil, compileErrf(pos, "unsupported statement")
	}
}

func (c *compiler) compileReturn(s *returnStmt) (execFn, error) {
	pos := s.pos
	if s.val == nil {
		if c.inFunc && c.curRet.k != tVoid {
			return nil, compileErrf(pos, "function must return a %v value", c.curRet)
		}
		return func(f *frame) ctl {
			f.charge(pos, 1)
			return ctlReturn
		}, nil
	}
	mark := c.nodes
	v, t, err := c.compileExpr(s.val)
	if err != nil {
		return nil, err
	}
	if c.inFunc {
		if c.curRet.k == tVoid {
			return nil, compileErrf(pos, "void function cannot return a value")
		}
		if v, err = convertForStore(v, t, c.curRet, pos); err != nil {
			return nil, err
		}
	}
	cost := c.cost(mark)
	return func(f *frame) ctl {
		f.charge(pos, cost)
		f.ret = v(f)
		return ctlReturn
	}, nil
}

func (c *compiler) compileDecl(s *declStmt) (execFn, error) {
	mark := c.nodes
	dt := declTypeOf(s.typ)
	var inits []execFn
	for _, item := range s.items {
		if _, exists := c.locals[item.name]; exists {
			return nil, compileErrf(item.pos, "redeclaration of %q", item.name)
		}
		if _, isParam := c.pindex[item.name]; isParam {
			return nil, compileErrf(item.pos, "%q shadows a record parameter", item.name)
		}
		slot := c.nslots
		c.nslots++
		c.locals[item.name] = &localVar{slot: slot, typ: dt}
		if item.init == nil {
			continue
		}
		v, it, err := c.compileExpr(item.init)
		if err != nil {
			return nil, err
		}
		if v, err = convertForStore(v, it, dt, item.pos); err != nil {
			return nil, err
		}
		inits = append(inits, func(f *frame) ctl {
			f.locals[slot] = v(f)
			return ctlNext
		})
	}
	run, pos, cost := sequence(inits), s.pos, c.cost(mark)
	return func(f *frame) ctl {
		f.charge(pos, cost)
		return run(f)
	}, nil
}

// convertForStore converts a value of type 'have' for a slot of type
// 'want', or reports an incompatibility.
func convertForStore(v evalFn, have, want etype, pos Pos) (evalFn, error) {
	switch {
	case have.k == want.k:
		return v, nil
	case have.k == tInt && want.k == tFloat:
		return toFloat(v), nil
	case have.k == tFloat && want.k == tInt:
		return toInt(v), nil
	default:
		return nil, compileErrf(pos, "cannot assign %v to %v", have, want)
	}
}

// toFloat promotes an int-typed value to double. Float64 reads an Unsigned
// value's bit pattern as unsigned, as C does.
func toFloat(v evalFn) evalFn {
	return func(f *frame) pbio.Value { return pbio.Float64(v(f).Float64()) }
}

func toInt(v evalFn) evalFn {
	return func(f *frame) pbio.Value { return pbio.Int(int64(v(f).Float64())) }
}

// compoundOps maps each compound assignment to its binary operator.
var compoundOps = map[tokKind]tokKind{
	tokPlusEq: tokPlus, tokMinusEq: tokMinus, tokStarEq: tokStar,
	tokSlashEq: tokSlash, tokPercentEq: tokPercent,
}

func (c *compiler) compileAssign(s *assignStmt) (execFn, error) {
	// Desugar compound assignment: "lhs op= rhs" → "lhs = lhs op rhs".
	rhs := s.rhs
	if op, ok := compoundOps[s.op]; ok {
		rhs = &binaryExpr{pos: s.pos, op: op, l: s.lhs, r: s.rhs}
	} else if s.op != tokAssign {
		return nil, compileErrf(s.pos, "unsupported assignment operator %v", s.op)
	}

	switch lhs := s.lhs.(type) {
	case *identExpr:
		lv, ok := c.locals[lhs.name]
		if !ok {
			if _, isParam := c.pindex[lhs.name]; isParam {
				return nil, compileErrf(lhs.pos, "cannot reassign record parameter %q; assign its fields instead", lhs.name)
			}
			return nil, compileErrf(lhs.pos, "undefined variable %q", lhs.name)
		}
		mark := c.nodes
		v, rt, err := c.compileExpr(rhs)
		if err != nil {
			return nil, err
		}
		if v, err = convertForStore(v, rt, lv.typ, s.pos); err != nil {
			return nil, err
		}
		slot, pos, cost := lv.slot, s.pos, c.cost(mark)
		return func(f *frame) ctl {
			f.charge(pos, cost)
			f.locals[slot] = v(f)
			return ctlNext
		}, nil

	case *fieldExpr, *indexExpr:
		return c.compileStorePath(s.lhs, rhs, s.pos)

	default:
		return nil, compileErrf(s.pos, "left side of assignment is not assignable")
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
func (c *compiler) compileStorePath(lhs, rhs expr, pos Pos) (execFn, error) {
	mark := c.nodes
	baseParam, segs, err := c.splitPath(foldExpr(lhs))
	if err != nil {
		return nil, err
	}
	format := c.params[baseParam].Format
	nav := func(f *frame) *pbio.Record { return f.params[baseParam] }

	// Navigate all segments but the last.
	for _, seg := range segs[:len(segs)-1] {
		fidx := format.Lookup(seg.field)
		if fidx < 0 {
			return nil, compileErrf(seg.pos, "format %q has no field %q", format.Name(), seg.field)
		}
		fld, outer := format.Field(fidx), nav
		if seg.idx == nil {
			if fld.Kind != pbio.Complex {
				return nil, compileErrf(seg.pos, "field %q is not a record; only the final path segment may be a scalar", seg.field)
			}
			nav = func(f *frame) *pbio.Record { return outer(f).GetIndex(fidx).Record() }
			format = fld.Sub
			continue
		}
		if fld.Kind != pbio.List || fld.Elem.Kind != pbio.Complex {
			return nil, compileErrf(seg.pos, "field %q is not a list of records", seg.field)
		}
		idx, err := c.compileIndex(seg.idx, seg.pos)
		if err != nil {
			return nil, err
		}
		at, size := seg.pos, elemSize(fld.Elem)
		nav = func(f *frame) *pbio.Record {
			rec := outer(f)
			elem, err := rec.NavListElem(fidx, f.grow(at, rec, fidx, idx(f).Int64(), size), &f.slab)
			if err != nil {
				fail(at, "%v", err)
			}
			return elem
		}
		format = fld.Elem.Sub
	}

	last := segs[len(segs)-1]
	fidx := format.Lookup(last.field)
	if fidx < 0 {
		return nil, compileErrf(last.pos, "format %q has no field %q", format.Name(), last.field)
	}
	fld := format.Field(fidx)

	if last.idx != nil {
		// dst.list[i] = rhs
		if fld.Kind != pbio.List {
			return nil, compileErrf(last.pos, "field %q is not a list", last.field)
		}
		idx, err := c.compileIndex(last.idx, last.pos)
		if err != nil {
			return nil, err
		}
		v, err := c.compileFieldStore(rhs, fld.Elem, last.pos)
		if err != nil {
			return nil, err
		}
		cost, size := c.cost(mark), elemSize(fld.Elem)
		return func(f *frame) ctl {
			f.charge(pos, cost)
			rec := nav(f)
			i := idx(f).Int64()
			x := v(f)
			if err := rec.SetListElem(fidx, f.grow(pos, rec, fidx, i, size), x); err != nil {
				fail(pos, "%v", err)
			}
			return ctlNext
		}, nil
	}

	// dst.field = rhs
	v, err := c.compileFieldStore(rhs, fld, last.pos)
	if err != nil {
		return nil, err
	}
	cost := c.cost(mark)
	return func(f *frame) ctl {
		f.charge(pos, cost)
		rec := nav(f)
		if err := rec.SetIndex(fidx, v(f)); err != nil {
			fail(pos, "%v", err)
		}
		return ctlNext
	}, nil
}

// compileIndex compiles an already folded subscript, which must be an int.
func (c *compiler) compileIndex(e expr, pos Pos) (evalFn, error) {
	v, t, err := c.expr(e)
	if err != nil {
		return nil, err
	}
	if t.k != tInt {
		return nil, compileErrf(pos, "list index must be an int, got %v", t)
	}
	return v, nil
}

// compileFieldStore compiles rhs for a store into fld, converting numbers
// and deep-copying records and lists so the destination never aliases its
// source. A copy is charged the Values it creates before it is made.
func (c *compiler) compileFieldStore(rhs expr, fld *pbio.Field, pos Pos) (evalFn, error) {
	v, rt, err := c.compileExpr(rhs)
	if err != nil {
		return nil, err
	}
	want := fieldType(fld)
	switch want.k {
	case tInt, tFloat:
		if !rt.isNumeric() {
			return nil, compileErrf(pos, "cannot assign %v to numeric field %q", rt, fld.Name)
		}
		// The value goes to pbio as it is, and pbio's store coerces it into
		// the field's kind and width, exactly as a conversion plan's copy
		// does: a double stored into a boolean field is true when non-zero,
		// an unsigned one into a double field keeps its sign.
		return v, nil
	case tStr:
		if rt.k != tStr {
			return nil, compileErrf(pos, "cannot assign %v to string field %q", rt, fld.Name)
		}
		return v, nil
	case tRec:
		if rt.k != tRec || !rt.format.SameStructure(want.format) {
			return nil, compileErrf(pos, "cannot assign %v to record field %q of format %q (structures must match; otherwise assign field-by-field)",
				rt, fld.Name, want.format.Name())
		}
	case tList:
		if rt.k != tList || !sameElem(rt.elem, want.elem) {
			return nil, compileErrf(pos, "cannot assign %v to list field %q (element types must match; otherwise copy element-wise)", rt, fld.Name)
		}
	default:
		return nil, compileErrf(pos, "field %q is not assignable", fld.Name)
	}
	return func(f *frame) pbio.Value {
		x := v(f)
		f.charge(pos, values(x))
		return x.Clone()
	}, nil
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

func (c *compiler) compileIf(s *ifStmt) (execFn, error) {
	mark := c.nodes
	cond, err := c.compileCond(s.cond)
	if err != nil {
		return nil, err
	}
	cost := c.cost(mark)
	then, err := c.compileStmt(s.then)
	if err != nil {
		return nil, err
	}
	els, err := c.compileOptStmt(s.els)
	if err != nil {
		return nil, err
	}
	pos := s.pos
	return func(f *frame) ctl {
		f.charge(pos, cost)
		if Truthy(cond(f)) {
			return then(f)
		}
		return els(f)
	}, nil
}

// compileOptStmt compiles s, or a statement that does nothing if s is nil.
func (c *compiler) compileOptStmt(s stmt) (execFn, error) {
	if s == nil {
		return func(*frame) ctl { return ctlNext }, nil
	}
	return c.compileStmt(s)
}

// loopBody compiles the body of a loop, inside which break and continue
// both apply.
func (c *compiler) loopBody(s stmt) (execFn, error) {
	c.breakable++
	c.continuable++
	defer func() { c.breakable--; c.continuable-- }()
	return c.compileStmt(s)
}

func (c *compiler) compileFor(s *forStmt) (execFn, error) {
	init, err := c.compileOptStmt(s.init)
	if err != nil {
		return nil, err
	}
	mark := c.nodes
	var cond evalFn
	if s.cond != nil {
		if cond, err = c.compileCond(s.cond); err != nil {
			return nil, err
		}
	}
	test := c.cost(mark) // charged per iteration
	body, err := c.loopBody(s.body)
	if err != nil {
		return nil, err
	}
	post, err := c.compileOptStmt(s.post)
	if err != nil {
		return nil, err
	}
	pos := s.pos
	return func(f *frame) ctl {
		f.charge(pos, 1)
		init(f)
		for {
			f.charge(pos, test)
			if cond != nil && !Truthy(cond(f)) {
				return ctlNext
			}
			switch body(f) {
			case ctlBreak:
				return ctlNext
			case ctlReturn:
				return ctlReturn
			}
			post(f)
		}
	}, nil
}

// compileDoWhile compiles C's do/while: the body runs once before the
// condition is first tested; continue re-tests the condition.
func (c *compiler) compileDoWhile(s *doWhileStmt) (execFn, error) {
	body, err := c.loopBody(s.body)
	if err != nil {
		return nil, err
	}
	mark := c.nodes
	cond, err := c.compileCond(s.cond)
	if err != nil {
		return nil, err
	}
	pos, test := s.pos, c.cost(mark)
	return func(f *frame) ctl {
		f.charge(pos, 1)
		for {
			switch body(f) {
			case ctlBreak:
				return ctlNext
			case ctlReturn:
				return ctlReturn
			}
			f.charge(pos, test)
			if !Truthy(cond(f)) {
				return ctlNext
			}
		}
	}, nil
}

// compileSwitch compiles C's switch with fallthrough. Case labels must fold
// to integer constants; the arms' statements run as one list from the
// matching label's arm on.
func (c *compiler) compileSwitch(s *switchStmt) (execFn, error) {
	mark := c.nodes
	cond, ct, err := c.compileExpr(s.cond)
	if err != nil {
		return nil, err
	}
	if ct.k != tInt {
		return nil, compileErrf(s.pos, "switch expression must be an int, got %v", ct)
	}
	pos, cost := s.pos, c.cost(mark)

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
				return nil, compileErrf(cs.pos, "case label must be an integer constant expression")
			}
			if _, dup := starts[lit.v]; dup {
				return nil, compileErrf(cs.pos, "duplicate case value %d", lit.v)
			}
			starts[lit.v] = len(body)
		}
		arm, err := c.compileStmts(cs.body)
		if err != nil {
			return nil, err
		}
		body = append(body, arm...)
	}
	return func(f *frame) ctl {
		f.charge(pos, cost)
		from, ok := starts[cond(f).Int64()]
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
	}, nil
}

// compileCond compiles a statement's condition, which must have a
// truthiness (int, float or string — like C, where any scalar works).
func (c *compiler) compileCond(e expr) (evalFn, error) {
	v, t, err := c.compileExpr(e)
	if err != nil {
		return nil, err
	}
	return v, checkCond(e.exprPos(), t)
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
func (c *compiler) compileExpr(e expr) (evalFn, etype, error) {
	return c.expr(foldExpr(e))
}

func constant(v pbio.Value) evalFn {
	return func(*frame) pbio.Value { return v }
}

// expr compiles an already folded expression.
func (c *compiler) expr(e expr) (evalFn, etype, error) {
	c.nodes++
	switch e := e.(type) {
	case *intLit:
		return constant(pbio.Int(e.v)), etype{k: tInt}, nil
	case *floatLit:
		return constant(pbio.Float64(e.v)), etype{k: tFloat}, nil
	case *strLit:
		return constant(pbio.Str(e.v)), etype{k: tStr}, nil
	case *identExpr:
		if lv, ok := c.locals[e.name]; ok {
			slot := lv.slot
			return func(f *frame) pbio.Value { return f.locals[slot] }, lv.typ, nil
		}
		if p, ok := c.pindex[e.name]; ok {
			return func(f *frame) pbio.Value { return pbio.RecordOf(f.params[p]) },
				etype{k: tRec, format: c.params[p].Format}, nil
		}
		return nil, etype{}, compileErrf(e.pos, "undefined variable %q", e.name)
	case *fieldExpr:
		base, bt, err := c.expr(e.base)
		if err != nil {
			return nil, etype{}, err
		}
		if bt.k != tRec {
			return nil, etype{}, compileErrf(e.pos, "%v has no fields", bt)
		}
		fidx := bt.format.Lookup(e.name)
		if fidx < 0 {
			return nil, etype{}, compileErrf(e.pos, "format %q has no field %q", bt.format.Name(), e.name)
		}
		return func(f *frame) pbio.Value { return base(f).Record().GetIndex(fidx) },
			fieldType(bt.format.Field(fidx)), nil
	case *indexExpr:
		base, bt, err := c.expr(e.base)
		if err != nil {
			return nil, etype{}, err
		}
		if bt.k != tList {
			return nil, etype{}, compileErrf(e.pos, "%v is not subscriptable", bt)
		}
		pos := e.pos
		idx, err := c.compileIndex(e.idx, pos)
		if err != nil {
			return nil, etype{}, err
		}
		return func(f *frame) pbio.Value {
			list := base(f).List()
			i := idx(f).Int64()
			if i < 0 || i >= int64(len(list)) {
				fail(pos, "list index %d out of range (length %d)", i, len(list))
			}
			return list[i]
		}, fieldType(bt.elem), nil
	case *callExpr:
		return c.compileCall(e)
	case *unaryExpr:
		return c.compileUnary(e)
	case *binaryExpr:
		return c.compileBinary(e)
	case *condExpr:
		return c.compileTernary(e)
	default:
		return nil, etype{}, compileErrf(e.exprPos(), "unsupported expression")
	}
}

func (c *compiler) compileUnary(e *unaryExpr) (evalFn, etype, error) {
	x, t, err := c.expr(e.x)
	if err != nil {
		return nil, etype{}, err
	}
	switch e.op {
	case tokMinus:
		switch t.k {
		case tInt:
			return func(f *frame) pbio.Value { return pbio.Int(-x(f).Int64()) }, t, nil
		case tFloat:
			return func(f *frame) pbio.Value { return pbio.Float64(-x(f).Float64()) }, t, nil
		default:
			return nil, etype{}, compileErrf(e.pos, "cannot negate %v", t)
		}
	case tokNot:
		if checkCond(e.pos, t) != nil {
			return nil, etype{}, compileErrf(e.pos, "cannot apply '!' to %v", t)
		}
		return func(f *frame) pbio.Value { return boolInt(!Truthy(x(f))) }, etype{k: tInt}, nil
	default:
		return nil, etype{}, compileErrf(e.pos, "unsupported unary operator")
	}
}

func (c *compiler) compileBinary(e *binaryExpr) (evalFn, etype, error) {
	l, lt, err := c.expr(e.l)
	if err != nil {
		return nil, etype{}, err
	}
	if e.op == tokAndAnd || e.op == tokOrOr {
		if err := checkCond(e.l.exprPos(), lt); err != nil {
			return nil, etype{}, err
		}
	}
	r, rt, err := c.expr(e.r)
	if err != nil {
		return nil, etype{}, err
	}
	op, pos, intT := e.op, e.pos, etype{k: tInt}
	switch op {
	case tokAndAnd, tokOrOr:
		if err := checkCond(e.r.exprPos(), rt); err != nil {
			return nil, etype{}, err
		}
		if op == tokAndAnd {
			return func(f *frame) pbio.Value { return boolInt(Truthy(l(f)) && Truthy(r(f))) }, intT, nil
		}
		return func(f *frame) pbio.Value { return boolInt(Truthy(l(f)) || Truthy(r(f))) }, intT, nil
	case tokPercent:
		if lt.k != tInt || rt.k != tInt {
			return nil, etype{}, compileErrf(pos, "operands of %% must be ints, got %v and %v", lt, rt)
		}
	default:
		// Arithmetic and comparison promote an int operand to double when
		// the other one is a double.
		if lt.k == tInt && rt.k == tFloat {
			l, lt = toFloat(l), rt
		} else if lt.k == tFloat && rt.k == tInt {
			r, rt = toFloat(r), lt
		}
	}

	switch op {
	case tokEq, tokNeq, tokLt, tokLe, tokGt, tokGe:
		switch {
		case lt.k == tInt && rt.k == tInt:
			return func(f *frame) pbio.Value { return boolInt(compare(op, l(f).Int64(), r(f).Int64())) }, intT, nil
		case lt.k == tFloat && rt.k == tFloat:
			return func(f *frame) pbio.Value { return boolInt(compare(op, l(f).Float64(), r(f).Float64())) }, intT, nil
		case lt.k == tStr && rt.k == tStr:
			return func(f *frame) pbio.Value {
				a, b := l(f).Strval(), r(f).Strval()
				f.charge(pos, int64(min(len(a), len(b)))) // the bytes compared
				return boolInt(compare(op, a, b))
			}, intT, nil
		}
		return nil, etype{}, compileErrf(pos, "cannot compare %v with %v", lt, rt)
	}
	switch {
	case lt.k == tStr && rt.k == tStr && op == tokPlus:
		return func(f *frame) pbio.Value {
			s := l(f).Strval() + r(f).Strval()
			f.charge(pos, int64(len(s)))
			return pbio.Str(s)
		}, lt, nil
	case lt.k == tInt && rt.k == tInt && (op == tokSlash || op == tokPercent):
		what := "division"
		if op == tokPercent {
			what = "modulo"
		}
		return func(f *frame) pbio.Value {
			a, b := l(f).Int64(), r(f).Int64()
			if b == 0 {
				fail(pos, "integer %s by zero", what)
			}
			if op == tokSlash {
				return pbio.Int(a / b)
			}
			return pbio.Int(a % b)
		}, intT, nil
	case lt.k == tInt && rt.k == tInt:
		return func(f *frame) pbio.Value { return pbio.Int(arith(op, l(f).Int64(), r(f).Int64())) }, intT, nil
	case lt.k == tFloat && rt.k == tFloat:
		return func(f *frame) pbio.Value { return pbio.Float64(arith(op, l(f).Float64(), r(f).Float64())) }, lt, nil
	}
	return nil, etype{}, compileErrf(pos, "invalid operands %v and %v", lt, rt)
}

// arith applies +, -, * or /.
func arith[T int64 | float64](op tokKind, l, r T) T {
	switch op {
	case tokPlus:
		return l + r
	case tokMinus:
		return l - r
	case tokStar:
		return l * r
	default:
		return l / r
	}
}

// compare applies a comparison operator.
func compare[T int64 | float64 | string](op tokKind, l, r T) bool {
	switch op {
	case tokEq:
		return l == r
	case tokNeq:
		return l != r
	case tokLt:
		return l < r
	case tokLe:
		return l <= r
	case tokGt:
		return l > r
	default:
		return l >= r
	}
}

func (c *compiler) compileTernary(e *condExpr) (evalFn, etype, error) {
	cond, ct, err := c.expr(e.cond)
	if err != nil {
		return nil, etype{}, err
	}
	if err := checkCond(e.cond.exprPos(), ct); err != nil {
		return nil, etype{}, err
	}
	t, tt, err := c.expr(e.t)
	if err != nil {
		return nil, etype{}, err
	}
	fl, ft, err := c.expr(e.f)
	if err != nil {
		return nil, etype{}, err
	}
	// An int branch is promoted when the other one is a double.
	if tt.k == tInt && ft.k == tFloat {
		t, tt = toFloat(t), ft
	} else if tt.k == tFloat && ft.k == tInt {
		fl, ft = toFloat(fl), tt
	}
	if ft.k != tt.k {
		return nil, etype{}, compileErrf(e.pos, "ternary branches have incompatible types %v and %v", tt, ft)
	}
	return func(f *frame) pbio.Value {
		if Truthy(cond(f)) {
			return t(f)
		}
		return fl(f)
	}, tt, nil
}

func (c *compiler) compileCall(e *callExpr) (evalFn, etype, error) {
	if fi, ok := c.findex[e.name]; ok {
		return c.compileUserCall(e, c.funcs[fi])
	}
	bi, ok := builtinIndex[e.name]
	if !ok {
		return nil, etype{}, compileErrf(e.pos, "unknown function %q", e.name)
	}
	b := &builtins[bi]
	if len(e.args) != len(b.args) {
		return nil, etype{}, compileErrf(e.pos, "%s expects %d argument(s), got %d", b.name, len(b.args), len(e.args))
	}
	args := make([]evalFn, len(e.args))
	for i, arg := range e.args {
		v, at, err := c.expr(arg)
		if err != nil {
			return nil, etype{}, err
		}
		switch want := b.args[i]; {
		case want == tAnyLen:
			if at.k != tStr && at.k != tList {
				return nil, etype{}, compileErrf(arg.exprPos(), "%s argument %d must be a string or list, got %v", b.name, i+1, at)
			}
		case want == tInt && at.k == tFloat:
			v = toInt(v)
		case want == tFloat && at.k == tInt:
			v = toFloat(v)
		case want != at.k:
			return nil, etype{}, compileErrf(arg.exprPos(), "%s argument %d must be %v, got %v", b.name, i+1, want, at)
		}
		args[i] = v
	}
	pos := e.pos
	return func(f *frame) pbio.Value {
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
	}, etype{k: b.result}, nil
}

// compileUserCall compiles a call of a user-defined function. The callee
// runs on the caller's frame with its own locals; fn.body is read at run
// time because the callee may not be compiled yet (forward references,
// recursion).
func (c *compiler) compileUserCall(e *callExpr, fn *ufunc) (evalFn, etype, error) {
	if len(e.args) != len(fn.params) {
		return nil, etype{}, compileErrf(e.pos, "%s expects %d argument(s), got %d", fn.name, len(fn.params), len(e.args))
	}
	args := make([]evalFn, len(e.args))
	for i, arg := range e.args {
		v, at, err := c.expr(arg)
		if err != nil {
			return nil, etype{}, err
		}
		if args[i], err = convertForStore(v, at, fn.params[i], arg.exprPos()); err != nil {
			return nil, etype{}, compileErrf(arg.exprPos(), "%s argument %d: cannot pass %v as %v", fn.name, i+1, at, fn.params[i])
		}
	}
	pos := e.pos
	return func(f *frame) pbio.Value {
		locals := make([]pbio.Value, fn.nlocals)
		for i, x := range args {
			locals[i] = x(f)
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
		v := f.ret
		f.ret = pbio.Value{}
		return v
	}, fn.result, nil
}
