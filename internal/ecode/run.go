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

// runFailure carries a runtime error from the closure that detected it up
// to Run, which recovers it: compiled code returns only values, so a failure
// unwinds the Go stack instead of threading an error through every node.
type runFailure struct{ err error }

// fail aborts the run with a runtime error at pos.
func fail(pos Pos, format string, args ...any) { panic(runFailure{runError(pos, format, args...)}) }

// runError is the runtime error at pos.
func runError(pos Pos, format string, args ...any) error {
	return fmt.Errorf("%w at %v: %s", ErrRuntime, pos, fmt.Sprintf(format, args...))
}

// maxCallDepth bounds user-function recursion so that network-supplied
// transformation code cannot overflow the Go stack.
const maxCallDepth = 200

// DefaultMaxSteps bounds a single Run when Program.MaxSteps is zero. It is
// generous enough for multi-megabyte message transformations while still
// terminating a transformation that loops forever — important because
// morphing middleware executes code it received over the network.
const DefaultMaxSteps = 1 << 28

// frame is the state of one Run, shared by every user-function call in it;
// Programs themselves are immutable and goroutine-safe.
type frame struct {
	locals []local        // the running function's (or the main program's)
	binds  []*pbio.Record // see newFrame; nil is unbound
	paths  []*pbio.Record // the part of binds that holds path bindings
	ret    pbio.Value     // set by a return statement for the call (or Run) it leaves
	depth  int            // user-function calls in progress

	left, limit int64 // the steps left of the budget (see Program.MaxSteps)

	// slab holds the list elements the program creates (allocated only if
	// it grows a list).
	slab pbio.Slab

	// room[i] is the first element of the array the run started
	// Program.lists[i] with, nil if it gave that list no room (see
	// Program.presize).
	room [8]*pbio.Value

	// A program with few locals and bindings keeps them here, in the
	// frame's own allocation.
	localBuf [4]local
	bindBuf  [8]*pbio.Record
}

// newFrame returns the frame of a run of a program with nlocals locals and
// npaths path bindings, limited to limit steps. Its binds are slot 0, which
// never holds a record, the parameters, which it always holds, and the
// path bindings (see recRef).
func newFrame(params []*pbio.Record, nlocals, npaths, limit int) *frame {
	f := &frame{left: int64(limit), limit: int64(limit)}
	f.locals = f.localBuf[:0]
	if nlocals > len(f.localBuf) {
		f.locals = make([]local, nlocals)
	}
	f.locals = f.locals[:nlocals]
	n := 1 + len(params) + npaths
	f.binds = f.bindBuf[:0]
	if n > len(f.bindBuf) {
		f.binds = make([]*pbio.Record, n)
	}
	f.binds = f.binds[:n]
	copy(f.binds[1:], params)
	f.paths = f.binds[1+len(params):]
	return f
}

// local is the storage of one local variable: a number, as an int64 or a
// double's IEEE bits, or a string, and the pbio kind of the Value last
// assigned to it. Arithmetic reads and writes the number in place, and a
// read as a Value gives back exactly the Value assigned, kind included:
// an int local keeps an Unsigned or Boolean field's kind. A local never
// assigned reads as the zero Value.
type local struct {
	n int64
	s string
	k pbio.Kind
}

func (l *local) value() pbio.Value {
	switch l.k {
	case pbio.Integer:
		return pbio.Int(l.n)
	case pbio.Unsigned:
		return pbio.Uint(uint64(l.n))
	case pbio.Boolean:
		return pbio.Bool(l.n != 0)
	case pbio.Char:
		return pbio.CharOf(byte(l.n))
	case pbio.Enum:
		return pbio.EnumOf(l.n)
	case pbio.Float:
		return pbio.Float64(l.float())
	case pbio.String:
		return pbio.Str(l.s)
	default:
		return pbio.Value{}
	}
}

// set stores v, a number or a string.
func (l *local) set(v pbio.Value) {
	switch l.k = v.Kind(); l.k {
	case pbio.String:
		l.s = v.Strval()
	case pbio.Float:
		l.setFloat(v.Float64())
	default:
		l.n = v.Int64()
	}
}

func (l *local) float() float64     { return math.Float64frombits(uint64(l.n)) }
func (l *local) setFloat(x float64) { l.n, l.k = int64(math.Float64bits(x)), pbio.Float }
func (l *local) setInt(n int64)     { l.n, l.k = n, pbio.Integer }

// charge takes n steps of the budget, failing the run if they are not left
// or n is negative.
func (f *frame) charge(pos Pos, n int64) {
	if uint64(n) > uint64(f.left) { // a negative n is over too
		f.overrun(pos)
	}
	f.left -= n
}

// overrun fails the run for exceeding its step limit. It is apart from
// charge so that charge inlines.
func (f *frame) overrun(pos Pos) {
	fail(pos, "step limit %d exceeded (possible infinite loop)", f.limit)
}

// grow checks subscript i of a write or navigation into rec's list field
// fidx, charges the elements it will append to the list, each size steps,
// and returns it as an int.
func (f *frame) grow(pos Pos, rec *pbio.Record, fidx int, i, size int64) int {
	if i < 0 {
		fail(pos, "negative list index %d", i)
	}
	if n := i - int64(rec.GetIndex(fidx).Len()); n >= 0 {
		cost := int64(-1) // over any budget, where (n+1)*size could overflow
		if n < f.limit/size {
			cost = (n + 1) * size
		}
		f.charge(pos, cost)
	}
	return int(i)
}

// elemSize is what appending one element of a list of elem costs: the
// element, plus the fields of a new record and of the records it nests.
func elemSize(elem *pbio.Field) int64 {
	if elem.Kind != pbio.Complex {
		return 1
	}
	_, vals := elem.Sub.Footprint()
	return 1 + int64(vals)
}

// values counts the Values a Clone of v creates: every list element and
// record field, however deeply nested.
func values(v pbio.Value) int64 {
	var n int64
	switch v.Kind() {
	case pbio.Complex:
		if r := v.Record(); r != nil {
			for i := range r.Format().NumFields() {
				n += 1 + values(r.GetIndex(i))
			}
		}
	case pbio.List:
		for _, e := range v.List() {
			n += 1 + values(e)
		}
	}
	return n
}

// Truthy is Ecode's truth rule, as C's: a number is true when it is not
// zero, a string when it is not empty.
func Truthy(v pbio.Value) bool {
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

// --- builtins ---

// tAnyLen marks a builtin argument that accepts either a string or a list.
const tAnyLen typeKind = 255

// builtinArgs holds a builtin call's arguments, passed by value so a call
// allocates nothing.
type builtinArgs [3]pbio.Value

type builtinFn struct {
	name   string
	args   []typeKind
	result typeKind
	fn     func(a builtinArgs) (pbio.Value, error)
}

var builtins = []builtinFn{
	{name: "strlen", args: []typeKind{tStr}, result: tInt,
		fn: func(a builtinArgs) (pbio.Value, error) {
			return pbio.Int(int64(len(a[0].Strval()))), nil
		}},
	{name: "len", args: []typeKind{tAnyLen}, result: tInt,
		fn: func(a builtinArgs) (pbio.Value, error) {
			return pbio.Int(int64(a[0].Len())), nil
		}},
	{name: "abs", args: []typeKind{tInt}, result: tInt,
		fn: func(a builtinArgs) (pbio.Value, error) {
			n := a[0].Int64()
			if n < 0 {
				n = -n
			}
			return pbio.Int(n), nil
		}},
	{name: "fabs", args: []typeKind{tFloat}, result: tFloat,
		fn: func(a builtinArgs) (pbio.Value, error) {
			return pbio.Float64(math.Abs(a[0].Float64())), nil
		}},
	{name: "floor", args: []typeKind{tFloat}, result: tFloat,
		fn: func(a builtinArgs) (pbio.Value, error) {
			return pbio.Float64(math.Floor(a[0].Float64())), nil
		}},
	{name: "ceil", args: []typeKind{tFloat}, result: tFloat,
		fn: func(a builtinArgs) (pbio.Value, error) {
			return pbio.Float64(math.Ceil(a[0].Float64())), nil
		}},
	{name: "atoi", args: []typeKind{tStr}, result: tInt,
		fn: func(a builtinArgs) (pbio.Value, error) {
			n, err := strconv.ParseInt(a[0].Strval(), 10, 64)
			if err != nil {
				return pbio.Int(0), nil // C atoi semantics: garbage parses to 0
			}
			return pbio.Int(n), nil
		}},
	{name: "atof", args: []typeKind{tStr}, result: tFloat,
		fn: func(a builtinArgs) (pbio.Value, error) {
			x, err := strconv.ParseFloat(a[0].Strval(), 64)
			if err != nil {
				return pbio.Float64(0), nil
			}
			return pbio.Float64(x), nil
		}},
	{name: "itoa", args: []typeKind{tInt}, result: tStr,
		fn: func(a builtinArgs) (pbio.Value, error) {
			return pbio.Str(strconv.FormatInt(a[0].Int64(), 10)), nil
		}},
	{name: "dtoa", args: []typeKind{tFloat}, result: tStr,
		fn: func(a builtinArgs) (pbio.Value, error) {
			return pbio.Str(strconv.FormatFloat(a[0].Float64(), 'g', -1, 64)), nil
		}},
	{name: "streq", args: []typeKind{tStr, tStr}, result: tInt,
		fn: func(a builtinArgs) (pbio.Value, error) {
			return boolInt(a[0].Strval() == a[1].Strval()), nil
		}},
	{name: "strcat", args: []typeKind{tStr, tStr}, result: tStr,
		fn: func(a builtinArgs) (pbio.Value, error) {
			return pbio.Str(a[0].Strval() + a[1].Strval()), nil
		}},
	{name: "substr", args: []typeKind{tStr, tInt, tInt}, result: tStr,
		fn: func(a builtinArgs) (pbio.Value, error) {
			s := a[0].Strval()
			from, n := a[1].Int64(), a[2].Int64()
			if from < 0 || n < 0 || from > int64(len(s)) {
				return pbio.Value{}, fmt.Errorf("substr(%q, %d, %d) out of range", s, from, n)
			}
			end := int64(len(s))
			if n < end-from {
				end = from + n
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
