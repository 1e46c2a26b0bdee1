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

// Registry binds Go struct types to Formats and caches the compiled
// marshalling plans for them. It is the reflection-based counterpart of a
// PBIO context: where PBIO generates machine code per format, the Registry
// compiles a per-type plan of closures once and reuses it for every message.
//
// The zero Registry is ready to use. A Registry is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	byType map[reflect.Type]*binding
}

type binding struct {
	format *Format
	enc    encPlan
	dec    decPlan
}

// Register derives (or returns the cached) Format for v's type. v must be a
// struct or pointer to struct with at least one encodable field. The format
// name is the struct type's name unless overridden with name.
func (reg *Registry) Register(v any, name string) (*Format, error) {
	t := reflect.TypeOf(v)
	b, err := reg.binding(t, name)
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
	format, enc, dec, err := compileStruct(t, name)
	if err != nil {
		return nil, err
	}
	b = &binding{format: format, enc: enc, dec: dec}
	if reg.byType == nil {
		reg.byType = make(map[reflect.Type]*binding)
	}
	reg.byType[t] = b
	return b, nil
}

// fieldSpec is the parsed form of one struct field's `pbio` tag.
type fieldSpec struct {
	name    string
	index   int
	char    bool // force Char kind for a uint8 field
	enum    bool // force Enum kind for an integer field
	symbols []string
}

// parseTag interprets a `pbio:"name,opt,..."` tag. Supported options:
// "char" (encode a uint8 as a char), "enum" (encode an integer as an enum),
// and "enum=A|B|C" (enum with named symbols).
func parseTag(sf reflect.StructField) (fieldSpec, bool) {
	tag := sf.Tag.Get("pbio")
	if tag == "-" || (!sf.IsExported() && tag == "") {
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
	return spec, sf.IsExported()
}

// compileStruct derives the Format for t and builds its encode and decode
// plans in a single pass, so field order and plan order cannot drift apart.
func compileStruct(t reflect.Type, name string) (*Format, encPlan, decPlan, error) {
	var (
		fields []Field
		enc    encPlan
		dec    decPlan
	)
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		spec, ok := parseTag(sf)
		if !ok {
			continue
		}
		spec.index = i
		fld, e, d, err := compileField(sf.Type, spec)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%v.%s: %w", t, sf.Name, err)
		}
		fields = append(fields, fld)
		enc = append(enc, e)
		dec = append(dec, d)
	}
	if len(fields) == 0 {
		return nil, nil, nil, fmt.Errorf("%w: struct %v has no encodable fields", ErrBadType, t)
	}
	format, err := NewFormat(name, fields)
	if err != nil {
		return nil, nil, nil, err
	}
	return format, enc, dec, nil
}

func compileField(t reflect.Type, spec fieldSpec) (Field, encStep, decStep, error) {
	idx := spec.index
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		size := intSize(t)
		kind := Integer
		if spec.enum {
			kind = Enum
		}
		fld := Field{Name: spec.name, Kind: kind, Size: size, Symbols: spec.symbols}
		return fld,
			func(dst []byte, sv reflect.Value) []byte {
				return appendFixedInt(dst, sv.Field(idx).Int(), size)
			},
			func(d *decoder, sv reflect.Value) error {
				n, err := d.fixedInt(size, true)
				if err != nil {
					return err
				}
				sv.Field(idx).SetInt(n)
				return nil
			}, nil

	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		size := intSize(t)
		kind := Unsigned
		if spec.char && t.Kind() == reflect.Uint8 {
			kind = Char
		} else if spec.enum {
			kind = Enum
		}
		fld := Field{Name: spec.name, Kind: kind, Size: size, Symbols: spec.symbols}
		return fld,
			func(dst []byte, sv reflect.Value) []byte {
				return appendFixedInt(dst, int64(sv.Field(idx).Uint()), size)
			},
			func(d *decoder, sv reflect.Value) error {
				n, err := d.fixedInt(size, false)
				if err != nil {
					return err
				}
				sv.Field(idx).SetUint(uint64(n))
				return nil
			}, nil

	case reflect.Float32, reflect.Float64:
		size := 8
		if t.Kind() == reflect.Float32 {
			size = 4
		}
		fld := Field{Name: spec.name, Kind: Float, Size: size}
		return fld,
			func(dst []byte, sv reflect.Value) []byte {
				return appendValue(dst, &Field{Kind: Float, Size: size}, Float64(sv.Field(idx).Float()))
			},
			func(d *decoder, sv reflect.Value) error {
				v, err := d.value(&Field{Kind: Float, Size: size}, nil)
				if err != nil {
					return err
				}
				sv.Field(idx).SetFloat(v.Float64())
				return nil
			}, nil

	case reflect.Bool:
		fld := Field{Name: spec.name, Kind: Boolean, Size: 1}
		return fld,
			func(dst []byte, sv reflect.Value) []byte {
				if sv.Field(idx).Bool() {
					return append(dst, 1)
				}
				return append(dst, 0)
			},
			func(d *decoder, sv reflect.Value) error {
				b, err := d.take(1)
				if err != nil {
					return err
				}
				sv.Field(idx).SetBool(b[0] != 0)
				return nil
			}, nil

	case reflect.String:
		fld := Field{Name: spec.name, Kind: String}
		return fld,
			func(dst []byte, sv reflect.Value) []byte {
				s := sv.Field(idx).String()
				dst = appendUvarint(dst, uint64(len(s)))
				return append(dst, s...)
			},
			func(d *decoder, sv reflect.Value) error {
				s, err := decodeString(d)
				if err != nil {
					return err
				}
				sv.Field(idx).SetString(s)
				return nil
			}, nil

	case reflect.Struct:
		subFormat, subEnc, subDec, err := compileStruct(t, t.Name())
		if err != nil {
			return Field{}, nil, nil, err
		}
		fld := Field{Name: spec.name, Kind: Complex, Sub: subFormat}
		return fld,
			func(dst []byte, sv reflect.Value) []byte {
				return subEnc.append(dst, sv.Field(idx))
			},
			func(d *decoder, sv reflect.Value) error {
				return subDec.run(d, sv.Field(idx))
			}, nil

	case reflect.Slice:
		return compileSliceField(t, spec)

	case reflect.Pointer:
		return Field{}, nil, nil, fmt.Errorf("%w: pointer fields are not supported (PBIO records are trees)", ErrBadType)

	default:
		return Field{}, nil, nil, fmt.Errorf("%w: %v", ErrBadType, t)
	}
}

func compileSliceField(t reflect.Type, spec fieldSpec) (Field, encStep, decStep, error) {
	idx := spec.index
	elemSpec := fieldSpec{name: "elem", char: spec.char, enum: spec.enum, symbols: spec.symbols}
	elemFld, _, _, err := compileField(t.Elem(), elemSpec)
	if err != nil {
		return Field{}, nil, nil, fmt.Errorf("slice element: %w", err)
	}
	// Re-compile the element against field index 0 of a synthetic one-field
	// view: slices need per-element access, so the element steps index into
	// the slice, not into a struct.
	elemFld.Name = ""
	elem := elemFld
	fld := Field{Name: spec.name, Kind: List, Elem: &elem}

	encElem, decElem, err := compileSliceElem(t.Elem(), &elem)
	if err != nil {
		return Field{}, nil, nil, err
	}
	elemType := t.Elem()
	return fld,
		func(dst []byte, sv reflect.Value) []byte {
			s := sv.Field(idx)
			n := s.Len()
			dst = appendUvarint(dst, uint64(n))
			for i := 0; i < n; i++ {
				dst = encElem(dst, s.Index(i))
			}
			return dst
		},
		func(d *decoder, sv reflect.Value) error {
			n, err := d.uvarint()
			if err != nil {
				return err
			}
			if n > uint64(len(d.buf)-d.pos) {
				return fmt.Errorf("%w: list count %d exceeds remaining %d bytes",
					ErrShortMessage, n, len(d.buf)-d.pos)
			}
			s := reflect.MakeSlice(reflect.SliceOf(elemType), int(n), int(n))
			for i := 0; i < int(n); i++ {
				if err := decElem(d, s.Index(i)); err != nil {
					return fmt.Errorf("element %d: %w", i, err)
				}
			}
			sv.Field(idx).Set(s)
			return nil
		}, nil
}

// elemEnc / elemDec operate on an element value directly rather than on a
// field of an enclosing struct.
type (
	elemEnc func(dst []byte, ev reflect.Value) []byte
	elemDec func(d *decoder, ev reflect.Value) error
)

func compileSliceElem(t reflect.Type, fld *Field) (elemEnc, elemDec, error) {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		size := fld.Size
		return func(dst []byte, ev reflect.Value) []byte {
				return appendFixedInt(dst, ev.Int(), size)
			}, func(d *decoder, ev reflect.Value) error {
				n, err := d.fixedInt(size, true)
				if err != nil {
					return err
				}
				ev.SetInt(n)
				return nil
			}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		size := fld.Size
		return func(dst []byte, ev reflect.Value) []byte {
				return appendFixedInt(dst, int64(ev.Uint()), size)
			}, func(d *decoder, ev reflect.Value) error {
				n, err := d.fixedInt(size, false)
				if err != nil {
					return err
				}
				ev.SetUint(uint64(n))
				return nil
			}, nil
	case reflect.Float32, reflect.Float64:
		size := fld.Size
		f := &Field{Kind: Float, Size: size}
		return func(dst []byte, ev reflect.Value) []byte {
				return appendValue(dst, f, Float64(ev.Float()))
			}, func(d *decoder, ev reflect.Value) error {
				v, err := d.value(f, nil)
				if err != nil {
					return err
				}
				ev.SetFloat(v.Float64())
				return nil
			}, nil
	case reflect.Bool:
		return func(dst []byte, ev reflect.Value) []byte {
				if ev.Bool() {
					return append(dst, 1)
				}
				return append(dst, 0)
			}, func(d *decoder, ev reflect.Value) error {
				b, err := d.take(1)
				if err != nil {
					return err
				}
				ev.SetBool(b[0] != 0)
				return nil
			}, nil
	case reflect.String:
		return func(dst []byte, ev reflect.Value) []byte {
				s := ev.String()
				dst = appendUvarint(dst, uint64(len(s)))
				return append(dst, s...)
			}, func(d *decoder, ev reflect.Value) error {
				s, err := decodeString(d)
				if err != nil {
					return err
				}
				ev.SetString(s)
				return nil
			}, nil
	case reflect.Struct:
		_, subEnc, subDec, err := compileStruct(t, t.Name())
		if err != nil {
			return nil, nil, err
		}
		return func(dst []byte, ev reflect.Value) []byte {
				return subEnc.append(dst, ev)
			}, func(d *decoder, ev reflect.Value) error {
				return subDec.run(d, ev)
			}, nil
	default:
		return nil, nil, fmt.Errorf("%w: slice of %v", ErrBadType, t)
	}
}

func intSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32:
		return 4
	default:
		return 8
	}
}

type (
	encStep func(dst []byte, sv reflect.Value) []byte
	decStep func(d *decoder, sv reflect.Value) error

	encPlan []encStep
	decPlan []decStep
)

func (p encPlan) append(dst []byte, sv reflect.Value) []byte {
	for _, step := range p {
		dst = step(dst, sv)
	}
	return dst
}

func (p decPlan) run(d *decoder, sv reflect.Value) error {
	for _, step := range p {
		if err := step(d, sv); err != nil {
			return err
		}
	}
	return nil
}

func appendUvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

// Marshal encodes v (a registered struct or pointer to one) as a complete
// enveloped message. Types are registered implicitly on first use, named
// after the struct type.
func (reg *Registry) Marshal(v any) ([]byte, error) {
	return reg.Append(nil, v)
}

// Append appends the enveloped encoding of v to dst.
func (reg *Registry) Append(dst []byte, v any) ([]byte, error) {
	sv := reflect.ValueOf(v)
	b, err := reg.binding(sv.Type(), "")
	if err != nil {
		return nil, err
	}
	for sv.Kind() == reflect.Pointer {
		if sv.IsNil() {
			return nil, fmt.Errorf("%w: nil pointer", ErrBadType)
		}
		sv = sv.Elem()
	}
	dst = appendFixedInt(dst, int64(b.format.Fingerprint()), 8)
	return b.enc.append(dst, sv), nil
}

// Unmarshal decodes an enveloped message whose format exactly matches the
// registered format of v's type. v must be a non-nil pointer to struct.
// Messages in a different (evolved) format must go through the morphing
// engine instead; Unmarshal reports ErrFingerprint for them.
func (reg *Registry) Unmarshal(data []byte, v any) error {
	sv := reflect.ValueOf(v)
	if sv.Kind() != reflect.Pointer || sv.IsNil() {
		return fmt.Errorf("%w: Unmarshal needs a non-nil *struct", ErrBadType)
	}
	b, err := reg.binding(sv.Type(), "")
	if err != nil {
		return err
	}
	fp, err := PeekFingerprint(data)
	if err != nil {
		return err
	}
	if fp != b.format.Fingerprint() {
		return fmt.Errorf("%w: message %016x, native format %q is %016x",
			ErrFingerprint, fp, b.format.Name(), b.format.Fingerprint())
	}
	d := decoder{buf: data, pos: EnvelopeSize}
	if err := b.dec.run(&d, sv.Elem()); err != nil {
		return err
	}
	if d.pos != len(d.buf) {
		return fmt.Errorf("%w: %d of %d bytes consumed", ErrTrailingData, d.pos, len(d.buf))
	}
	return nil
}
