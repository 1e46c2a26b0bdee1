package pbio

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Value is the dynamic representation of a single field value. It is a small
// tagged union packed into four fields of one word each, with a single
// pointer. Four is the most the compiler keeps in registers, so ecode's
// returned values, SetIndex and list appends move a Value as four plain
// words, and the GC scans one pointer per value. The zero Value has kind
// Invalid.
//
// Values are cheap to copy. Structured payloads (records, lists) are shared
// by reference; callers that need isolation should use Clone.
type Value struct {
	kind Kind
	num  int64 // Integer, Unsigned (bit pattern), Char, Enum, Boolean (0/1); Float's IEEE bits; List's cap
	n    int   // String or List length
	ptr  ref   // String data, *Record, or List element array
}

// ref is a Value's pointer word. The zero-size func array makes it, and so
// Value, non-comparable: == would compare strings and lists by address. A
// marker field in Value itself would be a fifth field and keep every Value
// out of registers.
type ref struct {
	_ [0]func()
	p unsafe.Pointer
}

// Int returns a Value of kind Integer.
func Int(v int64) Value { return Value{kind: Integer, num: v} }

// Uint returns a Value of kind Unsigned.
func Uint(v uint64) Value { return Value{kind: Unsigned, num: int64(v)} }

// Float64 returns a Value of kind Float.
func Float64(v float64) Value { return Value{kind: Float, num: int64(math.Float64bits(v))} }

// CharOf returns a Value of kind Char.
func CharOf(c byte) Value { return Value{kind: Char, num: int64(c)} }

// EnumOf returns a Value of kind Enum holding ordinal v.
func EnumOf(v int64) Value { return Value{kind: Enum, num: v} }

// Str returns a Value of kind String.
func Str(s string) Value {
	return Value{kind: String, n: len(s), ptr: ref{p: unsafe.Pointer(unsafe.StringData(s))}}
}

// Bool returns a Value of kind Boolean.
func Bool(b bool) Value {
	var n int64
	if b {
		n = 1
	}
	return Value{kind: Boolean, num: n}
}

// RecordOf returns a Value of kind Complex wrapping r.
func RecordOf(r *Record) Value { return Value{kind: Complex, ptr: ref{p: unsafe.Pointer(r)}} }

// ListOf returns a Value of kind List holding elems. The slice is retained,
// not copied; its capacity and nil-ness are preserved.
func ListOf(elems []Value) Value {
	return Value{kind: List, num: int64(cap(elems)), n: len(elems), ptr: ref{p: unsafe.Pointer(unsafe.SliceData(elems))}}
}

// The private accessors rebuild a payload without checking the kind; the
// caller has.

func (v Value) strv() string  { return unsafe.String((*byte)(v.ptr.p), v.n) }
func (v Value) recp() *Record { return (*Record)(v.ptr.p) }
func (v Value) flt() float64  { return math.Float64frombits(uint64(v.num)) }

func (v Value) lst() []Value {
	return unsafe.Slice((*Value)(v.ptr.p), int(v.num))[:v.n]
}

// Kind returns the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsZero reports whether v is the zero (Invalid) Value.
func (v Value) IsZero() bool { return v.kind == Invalid }

// bits is the integer payload of a scalar value: 0 for String, Complex and
// List, whose num word is unused or holds a capacity.
func (v Value) bits() int64 {
	if v.kind == List {
		return 0
	}
	return v.num
}

// Int64 returns the numeric payload for Integer, Char, Enum and Boolean
// values, the bit pattern reinterpreted as signed for Unsigned values, and
// a truncated value for Float. It returns 0 for non-numeric kinds.
func (v Value) Int64() int64 {
	if v.kind == Float {
		return int64(v.flt())
	}
	return v.bits()
}

// Uint64 returns the numeric payload as unsigned.
func (v Value) Uint64() uint64 {
	if v.kind == Float {
		return uint64(v.flt())
	}
	return uint64(v.bits())
}

// Float64 returns the floating payload, converting numeric kinds as needed.
func (v Value) Float64() float64 {
	switch v.kind {
	case Float:
		return v.flt()
	case Unsigned:
		return float64(uint64(v.num))
	default:
		return float64(v.bits())
	}
}

// Bool reports the boolean payload; any non-zero numeric value is true.
func (v Value) Bool() bool {
	if v.kind == Float {
		return v.flt() != 0
	}
	return v.bits() != 0
}

// Strval returns the string payload, or "" for non-string kinds.
func (v Value) Strval() string {
	if v.kind != String {
		return ""
	}
	return v.strv()
}

// Record returns the nested record for Complex values, or nil otherwise.
func (v Value) Record() *Record {
	if v.kind != Complex {
		return nil
	}
	return v.recp()
}

// List returns the element slice for List values, or nil otherwise. The
// returned slice aliases the value's storage.
func (v Value) List() []Value {
	if v.kind != List {
		return nil
	}
	return v.lst()
}

// Len returns the element count for List values, the byte length for String
// values, and 0 otherwise.
func (v Value) Len() int {
	switch v.kind {
	case List, String:
		return v.n
	default:
		return 0
	}
}

// Clone returns a deep copy of v. Scalar values are returned as-is.
func (v Value) Clone() Value {
	switch v.kind {
	case Complex:
		if v.recp() == nil {
			return v
		}
		return RecordOf(v.recp().Clone())
	case List:
		src := v.lst()
		if src == nil {
			return v
		}
		elems := make([]Value, len(src))
		for i, e := range src {
			elems[i] = e.Clone()
		}
		return ListOf(elems)
	default:
		return v
	}
}

// Equal reports deep equality of two values. Values of different kinds are
// never equal, except that numeric comparisons do not distinguish the width
// a value was declared with.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case Invalid:
		return true
	case Float:
		a, b := v.flt(), o.flt()
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	case String:
		return v.strv() == o.strv()
	case Complex:
		return v.recp().Equal(o.recp())
	case List:
		if v.n != o.n {
			return false
		}
		a, b := v.lst(), o.lst()
		for i := range a {
			if !a[i].Equal(b[i]) {
				return false
			}
		}
		return true
	default:
		return v.num == o.num
	}
}

// String renders the value for debugging and error messages.
func (v Value) String() string {
	switch v.kind {
	case Invalid:
		return "<invalid>"
	case Integer, Char, Enum:
		return strconv.FormatInt(v.num, 10)
	case Unsigned:
		return strconv.FormatUint(uint64(v.num), 10)
	case Boolean:
		return strconv.FormatBool(v.num != 0)
	case Float:
		return strconv.FormatFloat(v.flt(), 'g', -1, 64)
	case String:
		return strconv.Quote(v.strv())
	case Complex:
		if v.recp() == nil {
			return "<nil record>"
		}
		return v.recp().String()
	case List:
		var b strings.Builder
		b.WriteByte('[')
		for i, e := range v.lst() {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteByte(']')
		return b.String()
	default:
		return fmt.Sprintf("<kind %d>", v.kind)
	}
}

// zeroValue returns the natural zero Value for a field: numeric zero, empty
// string, an all-zero nested record, or an empty list. Every kind but
// Complex packs its zero with the kind as the only non-zero word, which is
// what lets a slab make zero records by setting kinds in zeroed memory.
func zeroValue(f *Field) Value {
	if f.Kind == Complex {
		return RecordOf(NewRecord(f.Sub))
	}
	return Value{kind: f.Kind}
}
