package pbio

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
)

// ErrBadType is wrapped by errors deriving a Format from an unsupported Go
// type.
var ErrBadType = errors.New("pbio: unsupported Go type")

// Registry binds tagged Go struct types to Formats: the Go analog of the
// paper's Figure 2 field list, declared once per type through struct tags.
// Structs reach bytes only through Records — ToRecord then EncodeRecord on
// the way out, DecodeRecord then FromRecord on the way in — so there is one
// PBIO codec, and the morphing engine sees struct-built messages exactly as
// it sees any other.
//
// The zero Registry is ready to use. A Registry is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	byType map[reflect.Type]*binding
}

// binding is what a Registry derives once per struct type: its Format, and
// for each format field the Go struct field it maps to, so converting a
// message walks indices instead of re-reading tags.
type binding struct {
	format *Format
	fields []boundField // one per format field, in format order
}

type boundField struct {
	index int      // Go struct field index
	sub   *binding // the nested struct's binding, for struct and []struct fields
}

// Register derives (or returns the cached) Format for v's type. v must be a
// struct or pointer to struct with at least one encodable field. The format
// name is the struct type's name unless overridden with name.
func (reg *Registry) Register(v any, name string) (*Format, error) {
	b, err := reg.binding(reflect.TypeOf(v), name)
	if err != nil {
		return nil, err
	}
	return b.format, nil
}

// MustRegister is Register but panics on error, for package-level tables.
func (reg *Registry) MustRegister(v any, name string) *Format {
	f, err := reg.Register(v, name)
	if err != nil {
		panic(err)
	}
	return f
}

// FormatOf returns the Format previously derived for v's type, or nil if the
// type has not been registered.
func (reg *Registry) FormatOf(v any) *Format {
	t := structType(reflect.TypeOf(v))
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	if b, ok := reg.byType[t]; ok {
		return b.format
	}
	return nil
}

func structType(t reflect.Type) reflect.Type {
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t
}

func (reg *Registry) binding(t reflect.Type, name string) (*binding, error) {
	t = structType(t)
	if t == nil || t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("%w: need struct or *struct, got %v", ErrBadType, t)
	}
	reg.mu.RLock()
	b, ok := reg.byType[t]
	reg.mu.RUnlock()
	if ok {
		return b, nil
	}

	reg.mu.Lock()
	defer reg.mu.Unlock()
	if b, ok := reg.byType[t]; ok {
		return b, nil
	}
	if name == "" {
		name = t.Name()
	}
	b, err := deriveStruct(t, name, map[reflect.Type]bool{})
	if err != nil {
		return nil, err
	}
	if reg.byType == nil {
		reg.byType = make(map[reflect.Type]*binding)
	}
	reg.byType[t] = b
	return b, nil
}

// fieldSpec is the parsed form of one struct field's `pbio` tag.
type fieldSpec struct {
	name    string
	char    bool // force Char kind for a uint8 field
	enum    bool // force Enum kind for an integer field
	symbols []string
}

// parseTag interprets a `pbio:"name,opt,..."` tag. Supported options:
// "char" (encode a uint8 as a char), "enum" (encode an integer as an enum),
// and "enum=A|B|C" (enum with named symbols).
func parseTag(sf reflect.StructField) (fieldSpec, bool) {
	tag := sf.Tag.Get("pbio")
	if tag == "-" || !sf.IsExported() {
		return fieldSpec{}, false
	}
	spec := fieldSpec{name: sf.Name}
	parts := strings.Split(tag, ",")
	if parts[0] != "" {
		spec.name = parts[0]
	}
	for _, opt := range parts[1:] {
		switch {
		case opt == "char":
			spec.char = true
		case opt == "enum":
			spec.enum = true
		case strings.HasPrefix(opt, "enum="):
			spec.enum = true
			spec.symbols = strings.Split(strings.TrimPrefix(opt, "enum="), "|")
		}
	}
	return spec, true
}

// deriveStruct builds the binding of struct type t. onPath holds the struct
// types being derived above t: a type that contains itself, directly or
// through slices, would describe an infinite record, so it is refused
// rather than recursed into.
func deriveStruct(t reflect.Type, name string, onPath map[reflect.Type]bool) (*binding, error) {
	if onPath[t] {
		return nil, fmt.Errorf("%w: %v contains itself (PBIO records are trees)", ErrBadType, t)
	}
	onPath[t] = true
	defer delete(onPath, t)

	b := &binding{}
	var fields []Field
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		spec, ok := parseTag(sf)
		if !ok {
			continue
		}
		fld, sub, err := deriveField(sf.Type, spec, onPath)
		if err != nil {
			return nil, fmt.Errorf("%v.%s: %w", t, sf.Name, err)
		}
		fields = append(fields, fld)
		b.fields = append(b.fields, boundField{index: i, sub: sub})
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("%w: struct %v has no encodable fields", ErrBadType, t)
	}
	var err error
	b.format, err = NewFormat(name, fields)
	return b, err
}

// deriveField describes a value of Go type t, named and optioned by spec.
// Struct fields and slice elements alike go through it; for a struct, or a
// slice of structs, it also returns the struct's binding.
func deriveField(t reflect.Type, spec fieldSpec, onPath map[reflect.Type]bool) (Field, *binding, error) {
	fld := Field{Name: spec.name}
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fld.Kind, fld.Size = Integer, intSize(t)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fld.Kind, fld.Size = Unsigned, intSize(t)
		if spec.char && t.Kind() == reflect.Uint8 {
			fld.Kind = Char
		}
	case reflect.Float32, reflect.Float64:
		fld.Kind, fld.Size = Float, int(t.Size())
	case reflect.Bool:
		fld.Kind, fld.Size = Boolean, 1
	case reflect.String:
		fld.Kind = String
	case reflect.Struct:
		b, err := deriveStruct(t, t.Name(), onPath)
		if err != nil {
			return Field{}, nil, err
		}
		fld.Kind, fld.Sub = Complex, b.format
		return fld, b, nil
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Slice {
			return Field{}, nil, fmt.Errorf("%w: slice of %v", ErrBadType, t.Elem())
		}
		elemSpec := spec
		elemSpec.name = "" // Elem.Name is ignored by the format
		elem, b, err := deriveField(t.Elem(), elemSpec, onPath)
		if err != nil {
			return Field{}, nil, fmt.Errorf("slice element: %w", err)
		}
		fld.Kind, fld.Elem = List, &elem
		return fld, b, nil
	case reflect.Pointer:
		return Field{}, nil, fmt.Errorf("%w: pointer fields are not supported (PBIO records are trees)", ErrBadType)
	default:
		return Field{}, nil, fmt.Errorf("%w: %v", ErrBadType, t)
	}
	if spec.enum && (fld.Kind == Integer || fld.Kind == Unsigned) {
		fld.Kind, fld.Symbols = Enum, spec.symbols
	}
	return fld, nil, nil
}

func intSize(t reflect.Type) int {
	if t.Kind() == reflect.Int || t.Kind() == reflect.Uint {
		return 8
	}
	return int(t.Size())
}

// ToRecord converts a registered struct value into its dynamic Record form.
// The morphing engine and the generic transports operate on Records; sending
// applications typically keep their data in structs and convert at the
// boundary. Types are registered implicitly on first use, named after the
// struct type.
func (reg *Registry) ToRecord(v any) (*Record, error) {
	b, err := reg.binding(reflect.TypeOf(v), "")
	if err != nil {
		return nil, err
	}
	sv := reflect.ValueOf(v)
	for sv.Kind() == reflect.Pointer {
		if sv.IsNil() {
			return nil, fmt.Errorf("%w: nil pointer", ErrBadType)
		}
		sv = sv.Elem()
	}
	var s Slab
	s.Reserve(b.format, 1)
	return b.toRecord(sv, &s), nil
}

// toRecord builds the record of struct value sv, carving it and the nested
// records its struct fields hold from s.
func (b *binding) toRecord(sv reflect.Value, s *Slab) *Record {
	rec := s.carve(b.format)
	for i, bf := range b.fields {
		rec.vals[i] = goToValue(sv.Field(bf.index), &b.format.fields[i], bf.sub, s)
	}
	return rec
}

func goToValue(gv reflect.Value, fld *Field, sub *binding, s *Slab) Value {
	switch fld.Kind {
	case Integer:
		return Int(gv.Int())
	case Unsigned:
		return Uint(gv.Uint())
	case Char:
		return CharOf(byte(gv.Uint()))
	case Enum:
		if gv.CanInt() {
			return EnumOf(gv.Int())
		}
		return EnumOf(int64(gv.Uint()))
	case Float:
		return Float64(gv.Float())
	case Boolean:
		return Bool(gv.Bool())
	case String:
		return Str(gv.String())
	case Complex:
		return RecordOf(sub.toRecord(gv, s))
	default: // List
		n := gv.Len()
		elems := make([]Value, n)
		// The elements of a list of structs share one exact-size slab.
		var es Slab
		if sub != nil {
			es.Reserve(sub.format, n)
		}
		for i := range elems {
			elems[i] = goToValue(gv.Index(i), fld.Elem, sub, &es)
		}
		return ListOf(elems)
	}
}

// FromRecord populates the struct pointed to by v from rec. rec's format
// must be structurally identical to the format registered for v's type —
// which is exactly what the morphing engine guarantees for the records it
// delivers.
func (reg *Registry) FromRecord(rec *Record, v any) error {
	sv := reflect.ValueOf(v)
	if sv.Kind() != reflect.Pointer || sv.IsNil() {
		return fmt.Errorf("%w: FromRecord needs a non-nil *struct", ErrBadType)
	}
	b, err := reg.binding(sv.Type(), "")
	if err != nil {
		return err
	}
	if !rec.Format().SameStructure(b.format) {
		return fmt.Errorf("%w: record format %q (%016x) does not match native %q (%016x)",
			ErrFingerprint, rec.Format().Name(), rec.Format().Fingerprint(),
			b.format.Name(), b.format.Fingerprint())
	}
	b.fromRecord(rec, sv.Elem())
	return nil
}

// fromRecord stores rec, whose format is b's, into struct value sv.
func (b *binding) fromRecord(rec *Record, sv reflect.Value) {
	for i, bf := range b.fields {
		valueToGo(rec.vals[i], &b.format.fields[i], bf.sub, sv.Field(bf.index))
	}
}

func valueToGo(v Value, fld *Field, sub *binding, gv reflect.Value) {
	switch fld.Kind {
	case Integer, Unsigned, Char, Enum:
		if gv.CanInt() {
			gv.SetInt(v.Int64())
		} else {
			gv.SetUint(v.Uint64())
		}
	case Float:
		gv.SetFloat(v.Float64())
	case Boolean:
		gv.SetBool(v.Bool())
	case String:
		gv.SetString(v.Strval())
	case Complex:
		if rec := v.Record(); rec != nil {
			sub.fromRecord(rec, gv)
		}
	case List:
		elems := v.List()
		s := reflect.MakeSlice(gv.Type(), len(elems), len(elems))
		for i, e := range elems {
			valueToGo(e, fld.Elem, sub, s.Index(i))
		}
		gv.Set(s)
	}
}
