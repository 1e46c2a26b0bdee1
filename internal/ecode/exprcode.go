package ecode

import "repro/internal/pbio"

// Typed closures. An expression compiles to an exprCode: its type and what
// computes its value, from which each use builds a closure in the
// representation it needs. Arithmetic, comparisons and conditions run on
// int64, float64 and bool; strings are Go strings and records are record
// pointers. A value is boxed into a pbio.Value only where one is stored,
// passed to a function or returned — and a value read from a field already
// is one, so storing it passes it on unconverted, with its pbio kind.
type (
	valFn   func(*frame) pbio.Value
	intFn   func(*frame) int64
	floatFn func(*frame) float64
	boolFn  func(*frame) bool
	strFn   func(*frame) string
	recFn   func(*frame) *pbio.Record
)

// exprCode is a compiled expression: a literal, a load, a record or a
// computed form. The methods derive the other forms, so each use asks for
// the representation it needs.
type exprCode struct {
	t    etype
	fn   any     // the form it is computed in: valFn, intFn, floatFn, boolFn or strFn
	r    recRef  // records
	load load    // reads of locals and fields
	step *intArg // a local plus a constant, as i + 1, also computed by fn
	lit  expr    // a literal's *intLit, *floatLit or *strLit
}

// value is the value of literal node e.
func value(e expr) pbio.Value {
	switch e := e.(type) {
	case *intLit:
		return pbio.Int(e.v)
	case *floatLit:
		return pbio.Float64(e.v)
	default:
		return pbio.Str(e.(*strLit).v)
	}
}

// isInt reports whether the code is int arithmetic.
func (o *exprCode) isInt() bool {
	_, ok := o.fn.(intFn)
	return ok
}

// boxes reports whether the code's own form is a pbio.Value, whose kind a
// store or a return passes on.
func (o *exprCode) boxes() bool {
	_, ok := o.fn.(valFn)
	return ok || o.load.ok()
}

// recRef computes a record: the one in binding slot bind while it holds
// one, else nav's. Slot 0 never holds one.
type recRef struct {
	bind int
	nav  recFn
}

// unbound is the record nav computes.
func unbound(nav recFn) recRef { return recRef{nav: nav} }

// get is called in place by the closures that hold r, by value, so the
// hot path is one load from the frame.
func (r recRef) get(f *frame) *pbio.Record {
	if x := f.binds[r.bind]; x != nil {
		return x
	}
	return r.nav(f)
}

// load reads a stored value: local lv, or field fidx of rec. Its closures
// are built where it is used, in the form the use needs. The zero load
// reads nothing.
type load struct {
	lv   *localVar
	rec  recRef
	fidx int
}

func (l load) ok() bool    { return l.lv != nil || l.rec.nav != nil }
func (l load) local() bool { return l.lv != nil }

func (l load) val() valFn {
	if l.lv != nil {
		slot := l.lv.slot
		return func(f *frame) pbio.Value { return f.locals[slot].value() }
	}
	rec, fidx := l.rec, l.fidx
	return func(f *frame) pbio.Value { return rec.get(f).GetIndex(fidx) }
}

func (l load) int() intFn {
	if l.lv != nil {
		slot := l.lv.slot
		if l.lv.typ.k == tFloat {
			return func(f *frame) int64 { return int64(f.locals[slot].float()) }
		}
		return func(f *frame) int64 { return f.locals[slot].n }
	}
	rec, fidx := l.rec, l.fidx
	return func(f *frame) int64 { return rec.get(f).GetIndex(fidx).Int64() }
}

// float reads an int the way pbio's Float64 does, an Unsigned value's bits
// as unsigned.
func (l load) float() floatFn {
	if l.lv != nil {
		slot := l.lv.slot
		if l.lv.typ.k == tFloat {
			return func(f *frame) float64 { return f.locals[slot].float() }
		}
		return func(f *frame) float64 {
			if x := &f.locals[slot]; x.k == pbio.Unsigned {
				return float64(uint64(x.n))
			}
			return float64(f.locals[slot].n)
		}
	}
	rec, fidx := l.rec, l.fidx
	return func(f *frame) float64 { return rec.get(f).GetIndex(fidx).Float64() }
}

func (l load) cond() boolFn {
	if l.lv != nil {
		slot := l.lv.slot
		switch l.lv.typ.k {
		case tFloat:
			return func(f *frame) bool { return f.locals[slot].float() != 0 }
		case tStr:
			return func(f *frame) bool { return f.locals[slot].s != "" }
		default:
			return func(f *frame) bool { return f.locals[slot].n != 0 }
		}
	}
	rec, fidx := l.rec, l.fidx
	return func(f *frame) bool { return Truthy(rec.get(f).GetIndex(fidx)) }
}

// literal is the code of literal node e, of type t.
func literal(e expr, t etype) exprCode { return exprCode{t: t, lit: e} }

// val is the expression boxed, as a store, a call or a return needs it.
func (o *exprCode) val() valFn {
	switch fn := o.fn.(type) {
	case valFn:
		return fn
	case intFn:
		return func(f *frame) pbio.Value { return pbio.Int(fn(f)) }
	case boolFn:
		return func(f *frame) pbio.Value { return boolInt(fn(f)) }
	case floatFn:
		return func(f *frame) pbio.Value { return pbio.Float64(fn(f)) }
	case strFn:
		return func(f *frame) pbio.Value { return pbio.Str(fn(f)) }
	}
	switch {
	case o.lit != nil:
		k := value(o.lit)
		return func(*frame) pbio.Value { return k }
	case o.load.ok():
		return o.load.val()
	default:
		r := o.r
		return func(f *frame) pbio.Value { return pbio.RecordOf(r.get(f)) }
	}
}

// int is a numeric expression as an int64; a double truncates, as C's.
func (o *exprCode) int() intFn {
	switch fn := o.fn.(type) {
	case intFn:
		return fn
	case boolFn:
		return func(f *frame) int64 {
			if fn(f) {
				return 1
			}
			return 0
		}
	case floatFn:
		return func(f *frame) int64 { return int64(fn(f)) }
	case valFn:
		return func(f *frame) int64 { return fn(f).Int64() }
	}
	if o.lit != nil {
		n := value(o.lit).Int64()
		return func(*frame) int64 { return n }
	}
	return o.load.int()
}

// float is a numeric expression as a float64. A boxed int converts with
// pbio's Float64, which reads an Unsigned value's bit pattern as unsigned,
// as C does.
func (o *exprCode) float() floatFn {
	switch fn := o.fn.(type) {
	case floatFn:
		return fn
	case valFn:
		return func(f *frame) float64 { return fn(f).Float64() }
	case intFn, boolFn:
		i := o.int()
		return func(f *frame) float64 { return float64(i(f)) }
	}
	if o.lit != nil {
		x := value(o.lit).Float64()
		return func(*frame) float64 { return x }
	}
	return o.load.float()
}

// cond is the expression's truth (see Truthy).
func (o *exprCode) cond() boolFn {
	switch fn := o.fn.(type) {
	case boolFn:
		return fn
	case intFn:
		return func(f *frame) bool { return fn(f) != 0 }
	case floatFn:
		return func(f *frame) bool { return fn(f) != 0 }
	case strFn:
		return func(f *frame) bool { return fn(f) != "" }
	case valFn:
		return func(f *frame) bool { return Truthy(fn(f)) }
	}
	if o.lit != nil {
		b := Truthy(value(o.lit))
		return func(*frame) bool { return b }
	}
	return o.load.cond()
}

func (o *exprCode) str() strFn {
	if fn, ok := o.fn.(strFn); ok {
		return fn
	}
	if o.load.local() {
		slot := o.load.lv.slot
		return func(f *frame) string { return f.locals[slot].s }
	}
	v := o.val()
	return func(f *frame) string { return v(f).Strval() }
}

func (o *exprCode) rec() recRef {
	if o.r.nav != nil {
		return o.r
	}
	v := o.val()
	return unbound(func(f *frame) *pbio.Record { return v(f).Record() })
}

// intArg is an int operand as the closure that uses it reads it: the int
// local in slot plus k, read in place, or, when slot is -1, fn's value.
// Counters and subscripts are locals, so i++, i < n, list[i] and
// dst.count = n + 1 each cost one closure.
type intArg struct {
	slot int
	k    int64
	fn   intFn
}

func (a intArg) get(f *frame) int64 {
	if a.slot >= 0 {
		return f.locals[a.slot].n + a.k
	}
	return a.fn(f)
}

func (o *exprCode) arg() intArg {
	switch {
	case o.step != nil:
		return *o.step
	case o.load.local() && o.load.lv.typ.k == tInt:
		return intArg{slot: o.load.lv.slot}
	}
	return intArg{slot: -1, fn: o.int()}
}

// arith applies +, -, * or / to ints l and r. Integer division, which can
// fail, is compiled apart.
func arith(op tokKind, l intArg, r *exprCode) exprCode {
	o := exprCode{t: etype{k: tInt}, fn: arithFn(op, l, r)}
	if l.slot >= 0 && l.k == 0 && r.lit != nil && (op == tokPlus || op == tokMinus) {
		k := value(r.lit).Int64()
		if op == tokMinus {
			k = -k
		}
		o.step = &intArg{slot: l.slot, k: k}
	}
	return o
}

func arithFn(op tokKind, l intArg, r *exprCode) intFn {
	if r.lit != nil {
		k := value(r.lit).Int64()
		switch op {
		case tokPlus:
			return func(f *frame) int64 { return l.get(f) + k }
		case tokMinus:
			return func(f *frame) int64 { return l.get(f) - k }
		default:
			return func(f *frame) int64 { return l.get(f) * k }
		}
	}
	ra := r.arg()
	switch op {
	case tokPlus:
		return func(f *frame) int64 { return l.get(f) + ra.get(f) }
	case tokMinus:
		return func(f *frame) int64 { return l.get(f) - ra.get(f) }
	default:
		return func(f *frame) int64 { return l.get(f) * ra.get(f) }
	}
}

// arithFloat applies +, -, * or / to doubles.
func arithFloat(op tokKind, l, r floatFn) floatFn {
	switch op {
	case tokPlus:
		return func(f *frame) float64 { return l(f) + r(f) }
	case tokMinus:
		return func(f *frame) float64 { return l(f) - r(f) }
	case tokStar:
		return func(f *frame) float64 { return l(f) * r(f) }
	default:
		return func(f *frame) float64 { return l(f) / r(f) }
	}
}

// compare applies a comparison operator to ints.
func compare(op tokKind, l, r intArg) boolFn {
	switch op {
	case tokEq:
		return func(f *frame) bool { return l.get(f) == r.get(f) }
	case tokNeq:
		return func(f *frame) bool { return l.get(f) != r.get(f) }
	case tokLt:
		return func(f *frame) bool { return l.get(f) < r.get(f) }
	case tokLe:
		return func(f *frame) bool { return l.get(f) <= r.get(f) }
	case tokGt:
		return func(f *frame) bool { return l.get(f) > r.get(f) }
	default:
		return func(f *frame) bool { return l.get(f) >= r.get(f) }
	}
}

// compareFloat applies a comparison operator to doubles.
func compareFloat(op tokKind, l, r floatFn) boolFn {
	switch op {
	case tokEq:
		return func(f *frame) bool { return l(f) == r(f) }
	case tokNeq:
		return func(f *frame) bool { return l(f) != r(f) }
	case tokLt:
		return func(f *frame) bool { return l(f) < r(f) }
	case tokLe:
		return func(f *frame) bool { return l(f) <= r(f) }
	case tokGt:
		return func(f *frame) bool { return l(f) > r(f) }
	default:
		return func(f *frame) bool { return l(f) >= r(f) }
	}
}

// relation is a comparison operator over strings.
func relation(op tokKind) func(l, r string) bool {
	switch op {
	case tokEq:
		return func(l, r string) bool { return l == r }
	case tokNeq:
		return func(l, r string) bool { return l != r }
	case tokLt:
		return func(l, r string) bool { return l < r }
	case tokLe:
		return func(l, r string) bool { return l <= r }
	case tokGt:
		return func(l, r string) bool { return l > r }
	default:
		return func(l, r string) bool { return l >= r }
	}
}

// choose is c ? t : e.
func choose[T any](c boolFn, t, e func(*frame) T) func(*frame) T {
	return func(f *frame) T {
		if c(f) {
			return t(f)
		}
		return e(f)
	}
}
