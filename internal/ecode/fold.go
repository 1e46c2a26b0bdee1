package ecode

import "math"

// Constant folding: expressions whose operands are literals are evaluated
// at compile time, so transformation code full of symbolic constants (unit
// conversions like "new.dollars * 100.0 / 4.0") costs nothing per message.
// An operation is folded by compiling it and running the closure once, so
// folded and unfolded code share one copy of every operator. Folding never
// changes semantics: an operation that does not compile, or whose run
// fails (integer division by zero), is left unfolded, so the compiler
// reports it, or the run fails, exactly where the unfolded code would.

// foldExpr returns a simplified expression tree. It is idempotent and
// linear in the tree's size; the compiler calls it once on each expression
// that is not part of a larger one, before compiling it.
func foldExpr(e expr) expr {
	switch e := e.(type) {
	case *unaryExpr:
		e.x = foldExpr(e.x)
		if isLiteral(e.x) {
			return evalLiteral(e)
		}
	case *binaryExpr:
		e.l, e.r = foldExpr(e.l), foldExpr(e.r)
		if isLiteral(e.l) && isLiteral(e.r) {
			return evalLiteral(e)
		}
	case *condExpr:
		e.cond, e.t, e.f = foldExpr(e.cond), foldExpr(e.t), foldExpr(e.f)
		if isLiteral(e.cond) && isLiteral(e.t) && isLiteral(e.f) {
			return evalLiteral(e)
		}
	case *indexExpr:
		e.base, e.idx = foldExpr(e.base), foldExpr(e.idx)
	case *fieldExpr:
		e.base = foldExpr(e.base)
	case *callExpr:
		for i := range e.args {
			e.args[i] = foldExpr(e.args[i])
		}
	}
	return e
}

func isLiteral(e expr) bool {
	switch e.(type) {
	case *intLit, *floatLit, *strLit:
		return true
	default:
		return false
	}
}

// evalLiteral compiles e, an operation whose operands are literals, runs it
// once and returns its value as a literal of the type the compiler gave it.
// It returns e itself when e does not compile or its run fails. Literals
// need no parameters or locals, so a zero compiler suffices, and a frame
// with no step limit.
func evalLiteral(e expr) (folded expr) {
	var c compiler
	o, err := c.expr(e)
	if err != nil {
		return e
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(runFailure); !ok {
				panic(r)
			}
			folded = e
		}
	}()
	v, pos := o.val()(&frame{left: math.MaxInt64, limit: math.MaxInt64}), e.exprPos()
	switch o.t.k {
	case tInt:
		return &intLit{pos: pos, v: v.Int64()}
	case tFloat:
		return &floatLit{pos: pos, v: v.Float64()}
	default: // operators yield only ints, doubles and strings
		return &strLit{pos: pos, v: v.Strval()}
	}
}
