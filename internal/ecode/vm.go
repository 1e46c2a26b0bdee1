package ecode

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/pbio"
)

// ErrRuntime is wrapped by all execution-time failures (index out of range,
// division by zero, step-limit exceeded).
var ErrRuntime = errors.New("ecode: runtime error")

func runtimeErrf(pos Pos, format string, args ...any) error {
	return fmt.Errorf("%w at %v: %s", ErrRuntime, pos, fmt.Sprintf(format, args...))
}

type opcode uint8

const (
	opConst opcode = iota
	opLoadLocal
	opStoreLocal
	opLoadParam
	opGetField
	opIndex
	opNavElem
	opStoreField
	opStoreElem
	opCloneTop
	opAddI
	opAddF
	opAddS
	opSubI
	opSubF
	opMulI
	opMulF
	opDivI
	opDivF
	opModI
	opNegI
	opNegF
	opNot
	opBool
	opI2F
	opF2I
	opCmpI
	opCmpF
	opCmpS
	opJmp
	opJz
	opJnz
	opCall
	opCallUser
	opPop
	opRet
	opHalt
)

// Comparison codes carried in op.a for opCmp*.
const (
	cmpEq = iota
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
)

// op is one bytecode instruction. a and b are operands (field index, slot,
// jump target, builtin index, arg count); k is an inline constant.
type op struct {
	code opcode
	a, b int
	k    pbio.Value
	pos  Pos
}

// maxCallDepth bounds user-function recursion so that network-supplied
// transformation code cannot overflow the Go stack.
const maxCallDepth = 200

// DefaultMaxSteps bounds a single Run when Program.MaxSteps is zero. It is
// generous enough for multi-megabyte message transformations while still
// terminating a transformation that loops forever — important because
// morphing middleware executes code it received over the network.
const DefaultMaxSteps = 1 << 28

// frame is the per-run mutable state; Programs themselves are immutable and
// goroutine-safe.
type frame struct {
	stack  []pbio.Value
	locals []pbio.Value
	params []*pbio.Record
}

func (f *frame) push(v pbio.Value) { f.stack = append(f.stack, v) }

func (f *frame) pop() pbio.Value {
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}

func truthy(v pbio.Value) bool {
	switch v.Kind() {
	case pbio.Float:
		return v.Float64() != 0
	case pbio.String:
		return v.Strval() != ""
	default:
		return v.Int64() != 0
	}
}

func boolInt(b bool) pbio.Value {
	if b {
		return pbio.Int(1)
	}
	return pbio.Int(0)
}

// runState is the state one Run shares across all user-function
// invocations: the instruction budget, and the slab that list elements the
// program creates are carved from (allocated only if it grows a list).
type runState struct {
	used, limit int
	slab        pbio.Slab
}

// exec runs the program's main instruction stream against the frame.
func (p *Program) exec(f *frame) (pbio.Value, error) {
	limit := p.MaxSteps
	if limit <= 0 {
		limit = DefaultMaxSteps
	}
	rs := &runState{limit: limit}
	v, err := p.execOps(p.ops, f, rs, 0)
	if st := obsCur.Load(); st != nil {
		st.runs.Inc()
		st.runSteps.Observe(uint64(rs.used))
	}
	return v, err
}

// execOps runs one instruction stream (the main program or a function body).
func (p *Program) execOps(ops []op, f *frame, rs *runState, depth int) (pbio.Value, error) {
	pc := 0
	for pc < len(ops) {
		rs.used++
		if rs.used > rs.limit {
			return pbio.Value{}, runtimeErrf(ops[pc].pos, "step limit %d exceeded (possible infinite loop)", rs.limit)
		}
		o := &ops[pc]
		pc++
		switch o.code {
		case opConst:
			f.push(o.k)
		case opLoadLocal:
			f.push(f.locals[o.a])
		case opStoreLocal:
			f.locals[o.a] = f.pop()
		case opLoadParam:
			f.push(pbio.RecordOf(f.params[o.a]))
		case opGetField:
			rec := f.pop().Record()
			f.push(rec.GetIndex(o.a))
		case opIndex:
			idx := f.pop().Int64()
			list := f.pop().List()
			if idx < 0 || idx >= int64(len(list)) {
				return pbio.Value{}, runtimeErrf(o.pos, "list index %d out of range (length %d)", idx, len(list))
			}
			f.push(list[idx])
		case opNavElem:
			idx := f.pop().Int64()
			rec := f.pop().Record()
			if idx < 0 {
				return pbio.Value{}, runtimeErrf(o.pos, "negative list index %d", idx)
			}
			elem, err := rec.NavListElem(o.a, int(idx), &rs.slab)
			if err != nil {
				return pbio.Value{}, runtimeErrf(o.pos, "%v", err)
			}
			f.push(pbio.RecordOf(elem))
		case opStoreField:
			v := f.pop()
			rec := f.pop().Record()
			if err := rec.SetIndex(o.a, v); err != nil {
				return pbio.Value{}, runtimeErrf(o.pos, "%v", err)
			}
		case opStoreElem:
			v := f.pop()
			idx := f.pop().Int64()
			rec := f.pop().Record()
			if idx < 0 {
				return pbio.Value{}, runtimeErrf(o.pos, "negative list index %d", idx)
			}
			if err := rec.SetListElem(o.a, int(idx), v); err != nil {
				return pbio.Value{}, runtimeErrf(o.pos, "%v", err)
			}
		case opCloneTop:
			f.push(f.pop().Clone())
		case opAddI:
			r, l := f.pop(), f.pop()
			f.push(pbio.Int(l.Int64() + r.Int64()))
		case opAddF:
			r, l := f.pop(), f.pop()
			f.push(pbio.Float64(l.Float64() + r.Float64()))
		case opAddS:
			r, l := f.pop(), f.pop()
			f.push(pbio.Str(l.Strval() + r.Strval()))
		case opSubI:
			r, l := f.pop(), f.pop()
			f.push(pbio.Int(l.Int64() - r.Int64()))
		case opSubF:
			r, l := f.pop(), f.pop()
			f.push(pbio.Float64(l.Float64() - r.Float64()))
		case opMulI:
			r, l := f.pop(), f.pop()
			f.push(pbio.Int(l.Int64() * r.Int64()))
		case opMulF:
			r, l := f.pop(), f.pop()
			f.push(pbio.Float64(l.Float64() * r.Float64()))
		case opDivI:
			r, l := f.pop(), f.pop()
			if r.Int64() == 0 {
				return pbio.Value{}, runtimeErrf(o.pos, "integer division by zero")
			}
			f.push(pbio.Int(l.Int64() / r.Int64()))
		case opDivF:
			r, l := f.pop(), f.pop()
			f.push(pbio.Float64(l.Float64() / r.Float64()))
		case opModI:
			r, l := f.pop(), f.pop()
			if r.Int64() == 0 {
				return pbio.Value{}, runtimeErrf(o.pos, "integer modulo by zero")
			}
			f.push(pbio.Int(l.Int64() % r.Int64()))
		case opNegI:
			f.push(pbio.Int(-f.pop().Int64()))
		case opNegF:
			f.push(pbio.Float64(-f.pop().Float64()))
		case opNot:
			f.push(boolInt(!truthy(f.pop())))
		case opBool:
			f.push(boolInt(truthy(f.pop())))
		case opI2F:
			f.push(pbio.Float64(float64(f.pop().Int64())))
		case opF2I:
			f.push(pbio.Int(int64(f.pop().Float64())))
		case opCmpI:
			r, l := f.pop().Int64(), f.pop().Int64()
			f.push(boolInt(cmpInt(o.a, l, r)))
		case opCmpF:
			r, l := f.pop().Float64(), f.pop().Float64()
			f.push(boolInt(cmpFloat(o.a, l, r)))
		case opCmpS:
			r, l := f.pop().Strval(), f.pop().Strval()
			f.push(boolInt(cmpStr(o.a, l, r)))
		case opJmp:
			pc = o.a
		case opJz:
			if !truthy(f.pop()) {
				pc = o.a
			}
		case opJnz:
			if truthy(f.pop()) {
				pc = o.a
			}
		case opCallUser:
			fn := p.funcs[o.a]
			if depth >= maxCallDepth {
				return pbio.Value{}, runtimeErrf(o.pos, "call depth %d exceeded in %q (runaway recursion)", maxCallDepth, fn.name)
			}
			nf := &frame{
				stack:  make([]pbio.Value, 0, 8),
				locals: make([]pbio.Value, fn.nlocals),
				params: f.params,
			}
			base := len(f.stack) - o.b
			copy(nf.locals, f.stack[base:])
			f.stack = f.stack[:base]
			ret, err := p.execOps(fn.ops, nf, rs, depth+1)
			if err != nil {
				return pbio.Value{}, err
			}
			if fn.result.k != tVoid {
				f.push(ret)
			}
		case opCall:
			b := &builtins[o.a]
			args := f.stack[len(f.stack)-o.b:]
			res, err := b.fn(args)
			if err != nil {
				return pbio.Value{}, runtimeErrf(o.pos, "%s: %v", b.name, err)
			}
			f.stack = f.stack[:len(f.stack)-o.b]
			f.push(res)
		case opPop:
			f.pop()
		case opRet:
			return f.pop(), nil
		case opHalt:
			return pbio.Value{}, nil
		default:
			return pbio.Value{}, runtimeErrf(o.pos, "corrupt bytecode: opcode %d", o.code)
		}
	}
	return pbio.Value{}, nil
}

func cmpInt(code int, l, r int64) bool {
	switch code {
	case cmpEq:
		return l == r
	case cmpNe:
		return l != r
	case cmpLt:
		return l < r
	case cmpLe:
		return l <= r
	case cmpGt:
		return l > r
	default:
		return l >= r
	}
}

func cmpFloat(code int, l, r float64) bool {
	switch code {
	case cmpEq:
		return l == r
	case cmpNe:
		return l != r
	case cmpLt:
		return l < r
	case cmpLe:
		return l <= r
	case cmpGt:
		return l > r
	default:
		return l >= r
	}
}

func cmpStr(code int, l, r string) bool {
	switch code {
	case cmpEq:
		return l == r
	case cmpNe:
		return l != r
	case cmpLt:
		return l < r
	case cmpLe:
		return l <= r
	case cmpGt:
		return l > r
	default:
		return l >= r
	}
}

// --- builtins ---

// tAnyLen marks a builtin argument that accepts either a string or a list.
const tAnyLen typeKind = 255

type builtinFn struct {
	name   string
	args   []typeKind
	result typeKind
	fn     func(args []pbio.Value) (pbio.Value, error)
}

var builtins = []builtinFn{
	{name: "strlen", args: []typeKind{tStr}, result: tInt,
		fn: func(a []pbio.Value) (pbio.Value, error) {
			return pbio.Int(int64(len(a[0].Strval()))), nil
		}},
	{name: "len", args: []typeKind{tAnyLen}, result: tInt,
		fn: func(a []pbio.Value) (pbio.Value, error) {
			return pbio.Int(int64(a[0].Len())), nil
		}},
	{name: "abs", args: []typeKind{tInt}, result: tInt,
		fn: func(a []pbio.Value) (pbio.Value, error) {
			n := a[0].Int64()
			if n < 0 {
				n = -n
			}
			return pbio.Int(n), nil
		}},
	{name: "fabs", args: []typeKind{tFloat}, result: tFloat,
		fn: func(a []pbio.Value) (pbio.Value, error) {
			return pbio.Float64(math.Abs(a[0].Float64())), nil
		}},
	{name: "floor", args: []typeKind{tFloat}, result: tFloat,
		fn: func(a []pbio.Value) (pbio.Value, error) {
			return pbio.Float64(math.Floor(a[0].Float64())), nil
		}},
	{name: "ceil", args: []typeKind{tFloat}, result: tFloat,
		fn: func(a []pbio.Value) (pbio.Value, error) {
			return pbio.Float64(math.Ceil(a[0].Float64())), nil
		}},
	{name: "atoi", args: []typeKind{tStr}, result: tInt,
		fn: func(a []pbio.Value) (pbio.Value, error) {
			n, err := strconv.ParseInt(a[0].Strval(), 10, 64)
			if err != nil {
				return pbio.Int(0), nil // C atoi semantics: garbage parses to 0
			}
			return pbio.Int(n), nil
		}},
	{name: "atof", args: []typeKind{tStr}, result: tFloat,
		fn: func(a []pbio.Value) (pbio.Value, error) {
			x, err := strconv.ParseFloat(a[0].Strval(), 64)
			if err != nil {
				return pbio.Float64(0), nil
			}
			return pbio.Float64(x), nil
		}},
	{name: "itoa", args: []typeKind{tInt}, result: tStr,
		fn: func(a []pbio.Value) (pbio.Value, error) {
			return pbio.Str(strconv.FormatInt(a[0].Int64(), 10)), nil
		}},
	{name: "dtoa", args: []typeKind{tFloat}, result: tStr,
		fn: func(a []pbio.Value) (pbio.Value, error) {
			return pbio.Str(strconv.FormatFloat(a[0].Float64(), 'g', -1, 64)), nil
		}},
	{name: "streq", args: []typeKind{tStr, tStr}, result: tInt,
		fn: func(a []pbio.Value) (pbio.Value, error) {
			return boolInt(a[0].Strval() == a[1].Strval()), nil
		}},
	{name: "strcat", args: []typeKind{tStr, tStr}, result: tStr,
		fn: func(a []pbio.Value) (pbio.Value, error) {
			return pbio.Str(a[0].Strval() + a[1].Strval()), nil
		}},
	{name: "substr", args: []typeKind{tStr, tInt, tInt}, result: tStr,
		fn: func(a []pbio.Value) (pbio.Value, error) {
			s := a[0].Strval()
			from, n := a[1].Int64(), a[2].Int64()
			if from < 0 || n < 0 || from > int64(len(s)) {
				return pbio.Value{}, fmt.Errorf("substr(%q, %d, %d) out of range", s, from, n)
			}
			end := from + n
			if end > int64(len(s)) {
				end = int64(len(s))
			}
			return pbio.Str(s[from:end]), nil
		}},
}

var builtinIndex = func() map[string]int {
	m := make(map[string]int, len(builtins))
	for i, b := range builtins {
		m[b.name] = i
	}
	return m
}()
