package pbio

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"strings"
	"sync/atomic"
)

// ErrBadFormat is wrapped by all format validation failures.
var ErrBadFormat = errors.New("pbio: invalid format")

// Field describes one field of a record format: its name, kind, wire width
// and, for structured kinds, the description of the nested data. This is the
// Go analog of the paper's IOField declaration (Figure 2), with reflect
// field indices standing in for C struct offsets.
type Field struct {
	// Name is the field's wire name. Field matching between evolved formats
	// is by name, so names must be unique within a Format.
	Name string

	// Kind is the field's type.
	Kind Kind

	// Size is the wire width in bytes for fixed-width kinds. Zero means the
	// kind's default width.
	Size int

	// Sub is the nested record format for Complex fields.
	Sub *Format

	// Elem describes the element type for List fields. Elem.Name is ignored.
	Elem *Field

	// Symbols optionally names the ordinals of an Enum field, starting at 0.
	Symbols []string

	// Default, when non-zero, is the value a morphing receiver fills in when
	// this field is missing from an incoming message (the XML-style default
	// field mapping the paper borrows).
	Default Value
}

// Format describes an entire record: the paper's "base format". Formats are
// immutable after construction by NewFormat; the same *Format may be shared
// freely across goroutines.
type Format struct {
	name   string
	fields []Field
	// byName indexes the fields for Lookup: one word per field, a keyed
	// hash of its name in the high half and its position in the low half,
	// sorted. A lookup steps over a few integers and compares one string,
	// which costs what a map lookup does in a tenth of a map's memory;
	// decoded formats are kept per peer and per generation.
	byName      []uint64
	weight      int
	fingerprint uint64

	// layout is the lazily computed byte-level layout analysis (layout.go),
	// so all construction paths (NewFormat, DecodeFormat, reflection) share
	// it without eager cost. An atomic pointer rather than a sync.Once keeps
	// the Format 16 bytes smaller.
	layout atomic.Pointer[Layout]
}

// NewFormat validates the field list and returns an immutable Format.
// The fields slice is copied.
//
// Validation enforces: a non-empty format name, non-empty unique field
// names, valid kinds and sizes, a Sub format on every Complex field, an Elem
// descriptor on every List field, and the absence of recursive format cycles
// (PBIO records are trees).
func NewFormat(name string, fields []Field) (*Format, error) {
	return newFormat(name, slices.Clone(fields))
}

// newFormat is NewFormat over a fields slice the format may keep.
func newFormat(name string, fields []Field) (*Format, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty format name", ErrBadFormat)
	}
	f := &Format{
		name:   name,
		fields: fields,
		byName: make([]uint64, len(fields)),
	}
	for i := range fields {
		f.byName[i] = nameHash(fields[i].Name) | uint64(i)
	}
	slices.Sort(f.byName)
	// dup is the first field whose name an earlier field already has. Equal
	// names hash alike, so only a run of equal hashes can hold a repeat, and
	// within a run the later entry is the later field.
	dup := len(fields)
	for k, e := range f.byName {
		for j := k - 1; j >= 0 && f.byName[j]&^posMask == e&^posMask; j-- {
			if i := int(uint32(e)); i < dup && fields[i].Name == fields[uint32(f.byName[j])].Name {
				dup = i
			}
		}
	}
	for i := range f.fields {
		fld := &f.fields[i]
		if fld.Name == "" {
			return nil, fmt.Errorf("%w: format %q: field %d has empty name", ErrBadFormat, name, i)
		}
		if i == dup {
			return nil, fmt.Errorf("%w: format %q: duplicate field %q", ErrBadFormat, name, fld.Name)
		}
		if err := validateField(fld, map[*Format]bool{f: true}); err != nil {
			return nil, fmt.Errorf("%w: format %q: field %q: %v", ErrBadFormat, name, fld.Name, err)
		}
	}
	f.weight = computeWeight(f)
	f.fingerprint = computeFingerprint(f)
	return f, nil
}

// MustFormat is NewFormat for statically known declarations; it panics on
// validation errors and is intended for package-level format tables.
func MustFormat(name string, fields []Field) *Format {
	f, err := NewFormat(name, fields)
	if err != nil {
		panic(err)
	}
	return f
}

func validateField(fld *Field, seen map[*Format]bool) error {
	if !fld.Kind.IsValid() {
		return fmt.Errorf("invalid kind %v", fld.Kind)
	}
	if fld.Size == 0 {
		fld.Size = fld.Kind.DefaultSize()
	}
	if !fld.Kind.validSize(fld.Size) {
		return fmt.Errorf("kind %v cannot have size %d", fld.Kind, fld.Size)
	}
	switch fld.Kind {
	case Complex:
		if fld.Sub == nil {
			return errors.New("complex field needs a Sub format")
		}
		if seen[fld.Sub] {
			return errors.New("recursive format cycle")
		}
		seen[fld.Sub] = true
		defer delete(seen, fld.Sub)
		for i := range fld.Sub.fields {
			if err := validateField(&fld.Sub.fields[i], seen); err != nil {
				return fmt.Errorf("in %q: %v", fld.Sub.fields[i].Name, err)
			}
		}
	case List:
		if fld.Elem == nil {
			return errors.New("list field needs an Elem descriptor")
		}
		if fld.Elem.Kind == List {
			return errors.New("list of list is not supported; wrap the inner list in a complex field")
		}
		if err := validateField(fld.Elem, seen); err != nil {
			return fmt.Errorf("list element: %v", err)
		}
	}
	if !fld.Default.IsZero() && !defaultCompatible(fld) {
		return fmt.Errorf("default value kind %v incompatible with field kind %v", fld.Default.Kind(), fld.Kind)
	}
	return nil
}

func defaultCompatible(fld *Field) bool {
	dk := fld.Default.Kind()
	switch fld.Kind {
	case Integer, Unsigned, Char, Enum, Boolean:
		return dk == Integer || dk == Unsigned || dk == Char || dk == Enum || dk == Boolean
	case Float:
		return dk == Float || dk == Integer || dk == Unsigned
	case String:
		return dk == String
	default:
		return false
	}
}

// Name returns the format's name. Distinct format versions share a name;
// the receiver-side matching in the morphing engine is scoped by name.
func (f *Format) Name() string { return f.name }

// NumFields returns the number of top-level fields.
func (f *Format) NumFields() int { return len(f.fields) }

// Field returns the i-th top-level field descriptor. The descriptor is the
// format's own, not a copy, and must not be modified: one decoded format is
// shared by every transform and cache entry of its owner that names it.
func (f *Format) Field(i int) *Field { return &f.fields[i] }

// Lookup returns the index of the field with the given name, or -1.
func (f *Format) Lookup(name string) int {
	h, idx := nameHash(name), f.byName
	// The hashes are uniform, so an entry sits near its hash's share of
	// the index: start there and step to the first entry >= h.
	k := int((h >> 32) * uint64(len(idx)) >> 32)
	for k > 0 && idx[k-1] >= h {
		k--
	}
	for k < len(idx) && idx[k] < h {
		k++
	}
	for ; k < len(idx) && idx[k]&^posMask == h; k++ {
		if i := int(uint32(idx[k])); f.fields[i].Name == name {
			return i
		}
	}
	return -1
}

// posMask selects the field position in a byName entry.
const posMask = 1<<32 - 1

// nameSeed keys the name hash per process, so a peer cannot choose field
// names whose hashes collide and turn Lookup into a scan.
var nameSeed = rand.Uint64()

// nameHash is the high half of a byName entry for a field called name: a
// 64-bit FNV-1a hash whose offset basis is nameSeed. It is inline code, not
// hash/maphash, because maphash's calls cost a quarter more on MaxMatch over
// 32 candidates, which is nearly all Lookup.
func nameHash(name string) uint64 {
	h := nameSeed
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h &^ posMask
}

// FieldByName returns the descriptor of the named field, or nil. Like
// Field's, it must not be modified.
func (f *Format) FieldByName(name string) *Field {
	if i := f.Lookup(name); i >= 0 {
		return &f.fields[i]
	}
	return nil
}

// Fields returns a copy of the top-level field descriptors.
func (f *Format) Fields() []Field {
	out := make([]Field, len(f.fields))
	copy(out, f.fields)
	return out
}

// Weight returns W_f: the total number of basic fields in the format,
// counting basic fields nested inside complex fields. A List field counts
// the weight of its element type once (the paper predates dynamic lists in
// its weight definition; counting the element schema once keeps Weight a
// property of the format rather than of any particular message).
func (f *Format) Weight() int { return f.weight }

// Fingerprint returns a stable 64-bit identity for the format's structure
// (name, field names, kinds, sizes, nesting and enum symbols). Two formats
// with equal fingerprints are wire-compatible.
func (f *Format) Fingerprint() uint64 { return f.fingerprint }

// SameStructure reports whether two formats have identical structure, i.e.
// equal fingerprints.
func (f *Format) SameStructure(o *Format) bool {
	if f == nil || o == nil {
		return f == o
	}
	return f.fingerprint == o.fingerprint
}

// Identical reports whether a and b describe the same format down to the
// last byte of their encoded descriptions, default values included. Equal
// fingerprints alone (SameStructure) are the identity on the hot path; an
// owner that keeps one object per structure checks Identical before it hands
// one format out in place of another, so a fingerprint collision can never
// swap one structure for another.
func Identical(a, b *Format) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.fingerprint != b.fingerprint {
		return false
	}
	return bytes.Equal(EncodeFormat(a), EncodeFormat(b))
}

func computeWeight(f *Format) int {
	w := 0
	for i := range f.fields {
		w += fieldWeight(&f.fields[i])
	}
	return w
}

func fieldWeight(fld *Field) int {
	switch fld.Kind {
	case Complex:
		return fld.Sub.weightOrCompute()
	case List:
		return fieldWeight(fld.Elem)
	default:
		return 1
	}
}

// weightOrCompute tolerates sub-formats that were built by NewFormat (weight
// cached) as well as synthesized ones.
func (f *Format) weightOrCompute() int {
	if f.weight > 0 || len(f.fields) == 0 {
		return f.weight
	}
	return computeWeight(f)
}

func computeFingerprint(f *Format) uint64 {
	h := fnv.New64a()
	h.Write(appendFormatSig(nil, f))
	return h.Sum64()
}

func appendFormatSig(b []byte, f *Format) []byte {
	b = append(b, f.name...)
	b = append(b, 0)
	for i := range f.fields {
		b = appendFieldSig(b, &f.fields[i])
	}
	b = append(b, 0xFF)
	return b
}

func appendFieldSig(b []byte, fld *Field) []byte {
	b = append(b, fld.Name...)
	b = append(b, 0, byte(fld.Kind), byte(fld.Size))
	switch fld.Kind {
	case Complex:
		b = appendFormatSig(b, fld.Sub)
	case List:
		b = appendFieldSig(b, fld.Elem)
	case Enum:
		for _, s := range fld.Symbols {
			b = append(b, s...)
			b = append(b, 1)
		}
	}
	return b
}

// String renders the format's structure, one field per line, for debugging.
func (f *Format) String() string {
	var b strings.Builder
	writeFormatString(&b, f, 0)
	return b.String()
}

func writeFormatString(b *strings.Builder, f *Format, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%sformat %q {\n", indent, f.name)
	for i := range f.fields {
		writeFieldString(b, &f.fields[i], depth+1)
	}
	fmt.Fprintf(b, "%s}", indent)
	if depth > 0 {
		b.WriteByte('\n')
	}
}

func writeFieldString(b *strings.Builder, fld *Field, depth int) {
	indent := strings.Repeat("  ", depth)
	switch fld.Kind {
	case Complex:
		fmt.Fprintf(b, "%s%s: complex\n", indent, fld.Name)
		writeFormatString(b, fld.Sub, depth+1)
	case List:
		fmt.Fprintf(b, "%s%s: list of\n", indent, fld.Name)
		writeFieldString(b, fld.Elem, depth+1)
	default:
		fmt.Fprintf(b, "%s%s: %v(%d)\n", indent, fld.Name, fld.Kind, fld.Size)
	}
}
