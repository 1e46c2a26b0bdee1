package ecode

import "repro/internal/pbio"

// FieldMove is one store of a field map: field Dst of the program's second
// parameter takes field Src of its first, or the constant Const when Src is
// -1. Field numbers are indices into the parameters' formats.
//
// A move with an Each is a list move: list field Dst, a list of records,
// is built from the elements of source list Src that Each admits, in
// order, one element per admitted source element, and Elem holds the
// element's moves, whose field numbers index the two lists' element
// formats. Each's Bound, Guard and Count follow pbio.Each, and its Overrun
// is the runtime error the program fails with when the bound is past the
// source list's end.
type FieldMove struct {
	Dst, Src int
	Const    pbio.Value

	Elem []FieldMove
	Each *pbio.Each
}

// FieldMap reports whether the program only moves fields and, when it does,
// returns what it moves: one FieldMove per store outside a loop, in source
// order, then one list move per list the loop builds, in the order the
// loop first stores into each. The moves are shared; callers must not
// modify them. Running the program is the same as storing each move into
// a zero record of the second format, as pbio.Plan builds it; the
// destination fields the map never names keep their zero values.
//
// Such a program has two parameters, and after constant folding is a flat
// list of "dst.f = src.g;" and "dst.f = literal;" stores into distinct
// basic fields of its second parameter. It never reads the destination or
// writes the source. It may also have int locals declared with literal
// initializers (or none) and one loop among those stores, the shape of
// the paper's Figure 5:
//
//	for (i = 0; i < src.N; i++) {
//	    dst.L[i].f = src.M[i].g;          // stores of each element
//	    if (src.M[i].b) {                 // guarded appends
//	        dst.C = k + 1;                // optional
//	        dst.S[k].f = src.M[i].g;      // at least one
//	        k++;                          // last
//	    }
//	}
//
// Here N is an integer source field, M a source list of records, b a
// Boolean field of its elements, and k an int local initialized to 0 that
// only its own block uses. The lists L and S, the count C and every flat
// destination are distinct, and no element field is stored twice. A
// program of any other shape has no field map. What the program does is
// then, exactly:
//   - the loop runs n = src.N times, read as an int; with n <= 0 it stores
//     nothing, and every list it builds keeps NewRecord's zero value;
//   - with n > len(src.M) the run fails with ErrRuntime, with the message
//     of its first read of src.M[len] (Each.Overrun);
//   - each L gets n elements, each S the first n elements whose b is true,
//     each element's unnamed fields keeping their zero values, and C ends
//     at the length of its S, or at zero when S got none;
//   - the elements past n are not read.
//
// A map runs without the program's step budget: what it costs is linear
// in its input, which a frame bounds (wire.DefaultMaxFrame, 64 MiB). So
// the VM refuses some inputs the map converts. Figure 5 is charged 39
// steps a member, and 26 more for each role the member has, so
// DefaultMaxSteps refuses a roster of more than about 2.9 million members
// that are all sources and sinks, or 6.9 million with no roles. Encoded
// with empty contacts, such rosters take 20 and 48 MB, within one frame.
func (p *Program) FieldMap() ([]FieldMove, bool) { return p.moves, p.moves != nil }

// fieldMap returns the field map of a parsed program, or nil when it does
// more than move fields. For a map without a loop it checks what the
// compiler would — the fields exist, and numbers go to numeric fields and
// strings to string ones — so a program it maps always compiles. A map
// with a loop is returned for programs that may not compile: Compile
// compiles those at once.
func fieldMap(stmts []stmt, params []Param) []FieldMove {
	if len(params) != 2 {
		return nil
	}
	m := mapper{src: params[0], dst: params[1], elems: -1}
	m.written = make([]bool, m.dst.Format.NumFields())
	moves := make([]FieldMove, 0, len(stmts))
	decls := false
	for _, s := range stmts {
		switch s := s.(type) {
		case *declStmt:
			if decls = true; !m.declare(s) {
				return nil
			}
		case *assignStmt:
			mv, ok := m.move(s)
			if !ok {
				return nil
			}
			moves = append(moves, mv)
		case *forStmt:
			if m.lists != nil || !m.loop(s) {
				return nil
			}
		default:
			return nil
		}
	}
	if decls && m.lists == nil {
		return nil // a program that declares locals but never loops is not a map
	}
	return append(moves, m.lists...)
}

// mapper is fieldMap's state: the parameters, the int locals declared so
// far, the destination fields written so far and the loop's list moves.
type mapper struct {
	src, dst Param
	locals   []mapLocal
	written  []bool
	lists    []FieldMove
	elems    int // the source list the loop reads, once it has read one
	bound    int // the source field the loop counts to
}

// mapLocal is an int local: whether its initializer is the literal 0, and
// whether the loop uses it, as its index or as a block's counter.
type mapLocal struct {
	name       string
	zero, used bool
}

// find returns the int local named name, or nil.
func (m *mapper) find(name string) *mapLocal {
	for i := range m.locals {
		if m.locals[i].name == name {
			return &m.locals[i]
		}
	}
	return nil
}

// declare notes the int locals s declares, whose initializers must be
// literals.
func (m *mapper) declare(s *declStmt) bool {
	if s.typ != declInt {
		return false
	}
	for _, it := range s.items {
		if m.locals == nil {
			m.locals = make([]mapLocal, 0, 4)
		}
		if m.find(it.name) != nil {
			return false
		}
		lv := mapLocal{name: it.name}
		if it.init != nil {
			lit, ok := foldExpr(it.init).(*intLit)
			if !ok {
				return false
			}
			lv.zero = lit.v == 0
		}
		m.locals = append(m.locals, lv)
	}
	return true
}

// write claims destination field j, which must not have been written.
func (m *mapper) write(j int) bool {
	if j < 0 || m.written[j] {
		return false
	}
	m.written[j] = true
	return true
}

// move maps a flat store, "dst.f = src.g;" or "dst.f = literal;".
func (m *mapper) move(a *assignStmt) (FieldMove, bool) {
	if a.op != tokAssign {
		return FieldMove{}, false
	}
	j := paramField(a.lhs, m.dst)
	if !m.write(j) {
		return FieldMove{}, false
	}
	mv := FieldMove{Dst: j, Src: -1}
	switch r := foldExpr(a.rhs).(type) {
	case *intLit:
		mv.Const = pbio.Int(r.v)
	case *floatLit:
		mv.Const = pbio.Float64(r.v)
	case *strLit:
		mv.Const = pbio.Str(r.v)
	default:
		if mv.Src = paramField(r, m.src); mv.Src < 0 {
			return FieldMove{}, false
		}
	}
	have := mv.Const.Kind()
	if mv.Src >= 0 {
		have = m.src.Format.Field(mv.Src).Kind
	}
	return mv, movable(have, m.dst.Format.Field(j).Kind)
}

// movable says a value of kind have stores into a field of kind want as a
// field map moves it: both basic, and on the same side of the
// number/string divide.
func movable(have, want pbio.Kind) bool {
	return have.IsBasic() && want.IsBasic() && (have == pbio.String) == (want == pbio.String)
}

// loop maps "for (i = 0; i < src.N; i++) body".
func (m *mapper) loop(s *forStmt) bool {
	init, ok := s.init.(*assignStmt)
	if !ok || init.op != tokAssign || !isIntLit(init.rhs, 0) {
		return false
	}
	iv := m.local(init.lhs)
	cond, ok := s.cond.(*binaryExpr)
	if iv == "" || !ok || cond.op != tokLt || localName(cond.l) != iv || !m.isStep(s.post, iv) {
		return false
	}
	if m.bound = paramField(cond.r, m.src); m.bound < 0 || !countable(m.src.Format.Field(m.bound).Kind) {
		return false
	}
	body := []stmt{s.body}
	if b, ok := s.body.(*blockStmt); ok {
		body = b.stmts
	}
	m.lists = make([]FieldMove, 0, 4) // the loop is seen, even if it builds nothing yet
	var first *indexExpr              // the body's first read of src.M[i]
	for _, st := range body {
		var at *indexExpr
		switch st := st.(type) {
		case *assignStmt:
			at = m.elemStore(st, iv, iv, nil)
		case *ifStmt:
			at = m.guarded(st, iv)
		}
		if at == nil {
			return false
		}
		if first == nil {
			first = at
		}
	}
	// The run fails at its first read of src.M[len(src.M)].
	overrun := func(length int) error { return rangeError(first.pos, int64(length), length) }
	for i := range m.lists {
		m.lists[i].Each.Overrun = overrun
	}
	return len(m.lists) > 0
}

// countable says a field of kind k reads as an int.
func countable(k pbio.Kind) bool { return fieldType(&pbio.Field{Kind: k}).k == tInt }

// local returns the name of the int local e names, which it marks used,
// or "" when e is not one or the loop uses it already.
func (m *mapper) local(e expr) string {
	name := localName(e)
	lv := m.find(name)
	if lv == nil || lv.used {
		return ""
	}
	lv.used = true
	return name
}

// localName is the name e is, when it is an identifier.
func localName(e expr) string {
	if id, ok := e.(*identExpr); ok {
		return id.name
	}
	return ""
}

// isStep says s is "name++" (or "name += 1").
func (m *mapper) isStep(s stmt, name string) bool {
	a, ok := s.(*assignStmt)
	return ok && a.op == tokPlusEq && localName(a.lhs) == name && isIntLit(a.rhs, 1)
}

func isIntLit(e expr, v int64) bool {
	lit, ok := foldExpr(e).(*intLit)
	return ok && lit.v == v
}

// guarded maps "if (src.M[i].b) { [dst.C = k + 1;] dst.S[k].f = src.M[i].g; ... k++; }"
// and returns its condition's read of src.M[i].
func (m *mapper) guarded(s *ifStmt, iv string) *indexExpr {
	body, ok := s.then.(*blockStmt)
	if s.els != nil || !ok || len(body.stmts) < 2 {
		return nil
	}
	at, guard := m.elemField(s.cond, iv)
	if at == nil || m.elem().Field(guard).Kind != pbio.Boolean {
		return nil
	}
	last, ok := body.stmts[len(body.stmts)-1].(*assignStmt)
	if !ok {
		return nil
	}
	k := m.local(last.lhs)
	if k == "" || !m.find(k).zero || !m.isStep(last, k) {
		return nil
	}
	each := &pbio.Each{Bound: m.bound, Guard: guard, Count: pbio.NoSource}
	list := -1 // the list the block appends to
	for _, st := range body.stmts[:len(body.stmts)-1] {
		a, ok := st.(*assignStmt)
		if !ok || a.op != tokAssign {
			return nil
		}
		if c := paramField(a.lhs, m.dst); c >= 0 {
			// dst.C = k + 1;
			sum, ok := foldExpr(a.rhs).(*binaryExpr)
			if each.Count != pbio.NoSource || !ok || sum.op != tokPlus || localName(sum.l) != k || !isIntLit(sum.r, 1) ||
				!movable(pbio.Integer, m.dst.Format.Field(c).Kind) || !m.write(c) {
				return nil
			}
			each.Count = c
			continue
		}
		if m.elemStore(a, iv, k, each) == nil {
			return nil
		}
		if l := m.lists[len(m.lists)-1].Dst; list < 0 {
			list = l
		} else if l != list {
			return nil // stores into a second list
		}
	}
	if list < 0 {
		return nil
	}
	return at
}

// elemStore maps "dst.L[x].f = src.M[i].g;", where x is the local named
// idx, into the list move of L, which it starts, with each as its Each,
// when the store is L's first. It returns the store's read of src.M[i].
// A list built by one statement group takes no stores from another.
func (m *mapper) elemStore(a *assignStmt, iv, idx string, each *pbio.Each) *indexExpr {
	fe, ok := a.lhs.(*fieldExpr)
	if !ok || a.op != tokAssign {
		return nil
	}
	ie, ok := fe.base.(*indexExpr)
	if !ok || localName(ie.idx) != idx {
		return nil
	}
	l := paramField(ie.base, m.dst)
	if l < 0 || m.dst.Format.Field(l).Kind != pbio.List || m.dst.Format.Field(l).Elem.Kind != pbio.Complex {
		return nil
	}
	at, g := m.elemField(a.rhs, iv)
	if at == nil {
		return nil
	}
	dstElem := m.dst.Format.Field(l).Elem.Sub
	f := dstElem.Lookup(fe.name)
	if f < 0 || !movable(m.elem().Field(g).Kind, dstElem.Field(f).Kind) {
		return nil
	}
	var list *FieldMove
	for i := range m.lists {
		if m.lists[i].Dst == l {
			list = &m.lists[i]
		}
	}
	switch {
	case list == nil:
		if !m.write(l) {
			return nil
		}
		if each == nil {
			each = &pbio.Each{Bound: m.bound, Guard: pbio.NoSource, Count: pbio.NoSource}
		}
		m.lists = append(m.lists, FieldMove{Dst: l, Src: m.elems, Each: each, Elem: make([]FieldMove, 0, dstElem.NumFields())})
		list = &m.lists[len(m.lists)-1]
	case list.Each != each && !(each == nil && list.Each.Guard == pbio.NoSource):
		return nil
	}
	for _, mv := range list.Elem {
		if mv.Dst == f {
			return nil
		}
	}
	list.Elem = append(list.Elem, FieldMove{Dst: f, Src: g})
	return at
}

// elemField matches "src.M[i].g", a field of an element of the source
// list of records the loop reads, and returns its subscript expression and
// g's index; nil when e is anything else.
func (m *mapper) elemField(e expr, iv string) (*indexExpr, int) {
	fe, ok := e.(*fieldExpr)
	if !ok {
		return nil, 0
	}
	ie, ok := fe.base.(*indexExpr)
	if !ok || localName(ie.idx) != iv {
		return nil, 0
	}
	l := paramField(ie.base, m.src)
	if l < 0 || m.src.Format.Field(l).Kind != pbio.List || m.src.Format.Field(l).Elem.Kind != pbio.Complex {
		return nil, 0
	}
	if m.elems < 0 {
		m.elems = l
	}
	g := m.elem().Lookup(fe.name)
	if l != m.elems || g < 0 {
		return nil, 0
	}
	return ie, g
}

// elem is the element format of the source list the loop reads.
func (m *mapper) elem() *pbio.Format { return m.src.Format.Field(m.elems).Elem.Sub }

// paramField returns the index of the field e names when e is "p.field",
// and -1 otherwise.
func paramField(e expr, p Param) int {
	fe, ok := e.(*fieldExpr)
	if !ok {
		return -1
	}
	if id, ok := fe.base.(*identExpr); !ok || id.name != p.Name {
		return -1
	}
	return p.Format.Lookup(fe.name)
}
