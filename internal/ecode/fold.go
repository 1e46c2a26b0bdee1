package ecode

// Constant folding: expressions whose operands are literals are evaluated
// at compile time, so transformation code full of symbolic constants (unit
// conversions like "new.dollars * 100.0 / 4.0") costs nothing per message.
// Folding never changes semantics: operations whose runtime behaviour is an
// error (division by zero) are left unfolded so they still fail at run time
// with a proper position.

// foldExpr returns a simplified expression tree. It is idempotent and
// linear in the tree's size; the compiler calls it once on each expression
// that is not part of a larger one, before compiling it.
func foldExpr(e expr) expr {
	switch e := e.(type) {
	case *unaryExpr:
		e.x = foldExpr(e.x)
		if e.op != tokMinus {
			return e
		}
		switch x := e.x.(type) {
		case *intLit:
			return &intLit{pos: e.pos, v: -x.v}
		case *floatLit:
			return &floatLit{pos: e.pos, v: -x.v}
		}
		return e
	case *binaryExpr:
		e.l = foldExpr(e.l)
		e.r = foldExpr(e.r)
		return foldBinary(e)
	case *condExpr:
		e.cond = foldExpr(e.cond)
		e.t = foldExpr(e.t)
		e.f = foldExpr(e.f)
		// A literal condition selects one branch outright — but only when
		// both branches are literals, because C's ternary promotes the
		// result to the unified type ("1 ? 2 : 3.5" is double 2.0) and the
		// fold must not change that observable type.
		truth, known := literalTruth(e.cond)
		if !known || !isLiteral(e.t) || !isLiteral(e.f) {
			return e
		}
		selected, other := e.t, e.f
		if !truth {
			selected, other = e.f, e.t
		}
		if si, ok := selected.(*intLit); ok {
			if _, promote := other.(*floatLit); promote {
				return &floatLit{pos: si.pos, v: float64(si.v)}
			}
		}
		return selected
	case *indexExpr:
		e.base = foldExpr(e.base)
		e.idx = foldExpr(e.idx)
		return e
	case *fieldExpr:
		e.base = foldExpr(e.base)
		return e
	case *callExpr:
		for i := range e.args {
			e.args[i] = foldExpr(e.args[i])
		}
		return e
	default:
		return e
	}
}

// literalTruth reports the truthiness of a literal expression and whether
// the expression is a literal at all.
func literalTruth(e expr) (truth, known bool) {
	switch e := e.(type) {
	case *intLit:
		return e.v != 0, true
	case *floatLit:
		return e.v != 0, true
	case *strLit:
		return e.v != "", true
	default:
		return false, false
	}
}

func isLiteral(e expr) bool {
	switch e.(type) {
	case *intLit, *floatLit, *strLit:
		return true
	default:
		return false
	}
}

func foldBinary(e *binaryExpr) expr {
	li, lIsInt := e.l.(*intLit)
	ri, rIsInt := e.r.(*intLit)
	lf, lIsFloat := e.l.(*floatLit)
	rf, rIsFloat := e.r.(*floatLit)
	ls, lIsStr := e.l.(*strLit)
	rs, rIsStr := e.r.(*strLit)

	boolLit := func(b bool) expr {
		if b {
			return &intLit{pos: e.pos, v: 1}
		}
		return &intLit{pos: e.pos, v: 0}
	}

	switch {
	case lIsInt && rIsInt:
		a, b := li.v, ri.v
		switch e.op {
		case tokPlus:
			return &intLit{pos: e.pos, v: a + b}
		case tokMinus:
			return &intLit{pos: e.pos, v: a - b}
		case tokStar:
			return &intLit{pos: e.pos, v: a * b}
		case tokSlash:
			if b == 0 {
				return e // preserve the runtime error
			}
			return &intLit{pos: e.pos, v: a / b}
		case tokPercent:
			if b == 0 {
				return e
			}
			return &intLit{pos: e.pos, v: a % b}
		case tokEq:
			return boolLit(a == b)
		case tokNeq:
			return boolLit(a != b)
		case tokLt:
			return boolLit(a < b)
		case tokLe:
			return boolLit(a <= b)
		case tokGt:
			return boolLit(a > b)
		case tokGe:
			return boolLit(a >= b)
		case tokAndAnd:
			return boolLit(a != 0 && b != 0)
		case tokOrOr:
			return boolLit(a != 0 || b != 0)
		}

	case (lIsFloat || lIsInt) && (rIsFloat || rIsInt):
		var a, b float64
		if lIsFloat {
			a = lf.v
		} else {
			a = float64(li.v)
		}
		if rIsFloat {
			b = rf.v
		} else {
			b = float64(ri.v)
		}
		switch e.op {
		case tokPlus:
			return &floatLit{pos: e.pos, v: a + b}
		case tokMinus:
			return &floatLit{pos: e.pos, v: a - b}
		case tokStar:
			return &floatLit{pos: e.pos, v: a * b}
		case tokSlash:
			return &floatLit{pos: e.pos, v: a / b} // IEEE semantics, like a run
		case tokEq:
			return boolLit(a == b)
		case tokNeq:
			return boolLit(a != b)
		case tokLt:
			return boolLit(a < b)
		case tokLe:
			return boolLit(a <= b)
		case tokGt:
			return boolLit(a > b)
		case tokGe:
			return boolLit(a >= b)
		}

	case lIsStr && rIsStr:
		a, b := ls.v, rs.v
		switch e.op {
		case tokPlus:
			return &strLit{pos: e.pos, v: a + b}
		case tokEq:
			return boolLit(a == b)
		case tokNeq:
			return boolLit(a != b)
		case tokLt:
			return boolLit(a < b)
		case tokLe:
			return boolLit(a <= b)
		case tokGt:
			return boolLit(a > b)
		case tokGe:
			return boolLit(a >= b)
		}
	}
	return e
}
