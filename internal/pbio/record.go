package pbio

import (
	"fmt"
	"strings"
)

// Record is a dynamically typed instance of a Format: one Value per declared
// field, in declaration order. Records are the currency of the morphing
// engine, which operates on messages whose formats are only known at run
// time.
//
// A Record is not safe for concurrent mutation.
type Record struct {
	format *Format
	vals   []Value
}

// NewRecord returns a record of the given format with every field set to
// its zero value.
func NewRecord(f *Format) *Record {
	var s Slab
	s.Reserve(f, 1)
	return s.NewRecord(f)
}

// Format returns the record's format.
func (r *Record) Format() *Format { return r.format }

// Get returns the value of the named field and whether the field exists.
func (r *Record) Get(name string) (Value, bool) {
	i := r.format.Lookup(name)
	if i < 0 {
		return Value{}, false
	}
	return r.vals[i], true
}

// GetIndex returns the value of the i-th field.
func (r *Record) GetIndex(i int) Value { return r.vals[i] }

// Set assigns the named field. It returns an error if the field does not
// exist or the value's kind is incompatible with the field's kind.
func (r *Record) Set(name string, v Value) error {
	i := r.format.Lookup(name)
	if i < 0 {
		return fmt.Errorf("pbio: format %q has no field %q", r.format.Name(), name)
	}
	return r.SetIndex(i, v)
}

// SetIndex assigns the i-th field, checking kind compatibility. Numeric
// values are coerced to the field's declared kind; complex values must have
// the field's exact sub-format structure; list elements are checked (and
// coerced) recursively, so a record can never hold data its format would
// mis-encode.
func (r *Record) SetIndex(i int, v Value) error {
	fld := r.format.Field(i)
	cv, err := convertValue(fld, v)
	if err != nil {
		return fmt.Errorf("pbio: field %q of format %q: %w", fld.Name, r.format.Name(), err)
	}
	r.vals[i] = cv
	return nil
}

// convertValue validates v against fld and returns it coerced to the
// field's declared kind. Structured values are only rebuilt when an element
// actually needs coercion.
func convertValue(fld *Field, v Value) (Value, error) {
	switch fld.Kind {
	case Complex:
		if v.kind != Complex {
			return Value{}, fmt.Errorf("cannot assign %v value to %v field", v.kind, fld.Kind)
		}
		if rec := v.recp(); rec != nil && !rec.format.SameStructure(fld.Sub) {
			return Value{}, fmt.Errorf("record of format %q does not match field sub-format %q",
				rec.format.Name(), fld.Sub.Name())
		}
		return v, nil
	case List:
		if v.kind != List {
			return Value{}, fmt.Errorf("cannot assign %v value to %v field", v.kind, fld.Kind)
		}
		list := v.lst()
		var rebuilt []Value
		for i, e := range list {
			ce, err := convertValue(fld.Elem, e)
			if err != nil {
				return Value{}, fmt.Errorf("list element %d: %w", i, err)
			}
			// coerce can change the kind or narrow the value; compare to
			// detect any rewrite.
			if rebuilt == nil && !ce.Equal(e) {
				rebuilt = make([]Value, len(list))
				copy(rebuilt, list[:i])
			}
			if rebuilt != nil {
				rebuilt[i] = ce
			}
		}
		if rebuilt == nil {
			return v, nil
		}
		return ListOf(rebuilt), nil
	default:
		if !assignable(fld.Kind, v.kind) {
			return Value{}, fmt.Errorf("cannot assign %v value to %v field", v.kind, fld.Kind)
		}
		return coerce(fld, v), nil
	}
}

// MustSet is Set but panics on error; it is a convenience for tests and
// examples where the field set is statically known.
func (r *Record) MustSet(name string, v Value) *Record {
	if err := r.Set(name, v); err != nil {
		panic(err)
	}
	return r
}

// assignable reports whether a value of kind vk may be stored into a field
// of kind fk. Numeric kinds inter-assign (with conversion); structured kinds
// must match exactly.
func assignable(fk, vk Kind) bool {
	switch fk {
	case Integer, Unsigned, Char, Enum, Boolean, Float:
		switch vk {
		case Integer, Unsigned, Char, Enum, Boolean, Float:
			return true
		}
		return false
	default:
		return fk == vk
	}
}

// coerce converts v to the exact kind AND declared wire width of fld, so
// that a stored value is always identical to its encode/decode round trip
// (storing 300 into a 1-byte integer field stores 44, exactly as a C struct
// assignment would truncate).
func coerce(fld *Field, v Value) Value {
	switch fld.Kind {
	case Integer, Enum:
		return Value{kind: fld.Kind, num: truncSigned(v.Int64(), fld.Size)}
	case Unsigned:
		return Value{kind: Unsigned, num: int64(truncUnsigned(v.Uint64(), fld.Size))}
	case Char:
		return CharOf(byte(v.Int64()))
	case Boolean:
		return Bool(v.Int64() != 0 || (v.Kind() == Float && v.Float64() != 0))
	case Float:
		if fld.Size == 4 {
			return Float64(float64(float32(v.Float64())))
		}
		return Float64(v.Float64())
	default:
		return v
	}
}

// truncSigned narrows n to the given byte width with sign extension, the
// value a decode of its encoding would produce.
func truncSigned(n int64, size int) int64 {
	switch size {
	case 1:
		return int64(int8(n))
	case 2:
		return int64(int16(n))
	case 4:
		return int64(int32(n))
	default:
		return n
	}
}

// truncUnsigned masks u to the given byte width.
func truncUnsigned(u uint64, size int) uint64 {
	switch size {
	case 1:
		return uint64(uint8(u))
	case 2:
		return uint64(uint16(u))
	case 4:
		return uint64(uint32(u))
	default:
		return u
	}
}

// GrowList ensures the list field at index i holds at least n elements,
// appending zero values of the element type as needed, and returns the
// (possibly reallocated) element slice. Writing one past the end of a list
// is how PBIO-style counted lists grow, so ecode uses this to give
// transformations C-like "dst.list[k] = ..." semantics.
func (r *Record) GrowList(i, n int) ([]Value, error) {
	fld := r.format.Field(i)
	if fld.Kind != List {
		return nil, fmt.Errorf("pbio: field %q of format %q is %v, not a list",
			fld.Name, r.format.Name(), fld.Kind)
	}
	elems := r.vals[i].lst()
	for len(elems) < n {
		elems = append(elems, zeroValue(fld.Elem))
	}
	r.vals[i] = ListOf(elems)
	return elems, nil
}

// SetListElem assigns element idx of the list field at index i, extending
// the list to idx+1 elements if needed. The value is coerced to the list's
// element kind under the same rules as SetIndex.
func (r *Record) SetListElem(i, idx int, v Value) error {
	if idx < 0 {
		return fmt.Errorf("pbio: negative list index %d", idx)
	}
	fld := r.format.Field(i)
	if fld.Kind != List {
		return fmt.Errorf("pbio: field %q of format %q is %v, not a list",
			fld.Name, r.format.Name(), fld.Kind)
	}
	cv, err := convertValue(fld.Elem, v)
	if err != nil {
		return fmt.Errorf("pbio: list element in field %q: %w", fld.Name, err)
	}
	elems, err := r.GrowList(i, idx+1)
	if err != nil {
		return err
	}
	elems[idx] = cv
	return nil
}

// NavListElem returns the nested record at element idx of the complex-list
// field at index i, extending the list to idx+1 elements if needed. New
// elements are zero records carved from s. The returned record is shared
// with the list, so mutations through it are visible in r.
func (r *Record) NavListElem(i, idx int, s *Slab) (*Record, error) {
	if idx < 0 {
		return nil, fmt.Errorf("pbio: negative list index %d", idx)
	}
	fld := r.format.Field(i)
	if fld.Kind != List || fld.Elem.Kind != Complex {
		return nil, fmt.Errorf("pbio: field %q of format %q is not a list of complex",
			fld.Name, r.format.Name())
	}
	elems := r.vals[i].lst()
	if idx >= len(elems) {
		if idx >= cap(elems) {
			// Doubling from 8 instead of append's growth from 1: an ecode
			// loop that grows a list one element at a time reallocates it
			// a few times, not once per power of two.
			grown := make([]Value, len(elems), max(2*cap(elems), idx+1, 8))
			copy(grown, elems)
			elems = grown
		}
		for len(elems) <= idx {
			elems = append(elems, RecordOf(s.NewRecord(fld.Elem.Sub)))
		}
		r.vals[i] = ListOf(elems)
	}
	return elems[idx].recp(), nil
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record {
	c := &Record{format: r.format, vals: make([]Value, len(r.vals))}
	for i, v := range r.vals {
		c.vals[i] = v.Clone()
	}
	return c
}

// Equal reports whether two records have structurally equal formats and
// deeply equal field values.
func (r *Record) Equal(o *Record) bool {
	if r == nil || o == nil {
		return r == o
	}
	if !r.format.SameStructure(o.format) || len(r.vals) != len(o.vals) {
		return false
	}
	for i := range r.vals {
		if !r.vals[i].Equal(o.vals[i]) {
			return false
		}
	}
	return true
}

// NativeSize returns the record's "unencoded" in-memory size in bytes: the
// sum of each field's declared width, string byte lengths, and list element
// sizes. This is the baseline the paper's Table 1 calls "Unencoded".
func (r *Record) NativeSize() int {
	total := 0
	for i := range r.vals {
		total += nativeFieldSize(r.format.Field(i), r.vals[i])
	}
	return total
}

func nativeFieldSize(fld *Field, v Value) int {
	switch fld.Kind {
	case String:
		// A native string is a pointer-plus-bytes; count the bytes and a
		// fixed 8-byte reference, mirroring a C char* field.
		return 8 + len(v.Strval())
	case Complex:
		if v.Record() == nil {
			return 0
		}
		return v.Record().NativeSize()
	case List:
		// An 8-byte pointer plus the elements themselves.
		total := 8
		for _, e := range v.List() {
			total += nativeFieldSize(fld.Elem, e)
		}
		return total
	default:
		return fld.Size
	}
}

// String renders the record as "name{field: value, ...}" for debugging.
func (r *Record) String() string {
	var b strings.Builder
	b.WriteString(r.format.Name())
	b.WriteByte('{')
	for i := range r.vals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.format.Field(i).Name)
		b.WriteString(": ")
		b.WriteString(r.vals[i].String())
	}
	b.WriteByte('}')
	return b.String()
}
