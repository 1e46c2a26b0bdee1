package pbio

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"weak"
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
// freely across goroutines, and is: a process holds one object per format
// (see intern).
type Format struct {
	name   string
	fields []Field
	// byName indexes the fields for Lookup: one 32-bit entry per field, a
	// keyed hash of its name in the high bits and its position in the low
	// bits (posMask), sorted. A lookup steps over a few integers and
	// compares one string, which costs what a map lookup does in a small
	// fraction of a map's memory; a process keeps one format per
	// generation it has seen.
	byName      []uint32
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
		byName: make([]uint32, len(fields)),
	}
	m := posMask(len(fields))
	for i := range fields {
		f.byName[i] = nameHash(fields[i].Name)&^m | uint32(i)
	}
	slices.Sort(f.byName)
	// dup is the first field whose name an earlier field already has. Equal
	// names hash alike, so only a run of equal hashes can hold a repeat, and
	// within a run the later entry is the later field.
	dup := len(fields)
	for k, e := range f.byName {
		for j := k - 1; j >= 0 && f.byName[j]&^m == e&^m; j-- {
			if i := int(e & m); i < dup && fields[i].Name == fields[f.byName[j]&m].Name {
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
		if err := validateField(fld); err != nil {
			return nil, fmt.Errorf("%w: format %q: field %q: %v", ErrBadFormat, name, fld.Name, err)
		}
	}
	f.fingerprint = computeFingerprint(f)
	return intern(f), nil
}

// interned maps a seeded hash of each live format's encoded description to
// a weak pointer to it, so every construction path (NewFormat, the struct
// bridge, DecodeFormat, nested formats included) hands out one object per
// format however many connections, caches and transforms name it. The
// pointers are weak, so the table never keeps a format alive; a cleanup
// removes the entry once its format dies.
var interned = struct {
	sync.Mutex
	seed maphash.Seed
	m    map[uint64]weak.Pointer[Format]
}{seed: maphash.MakeSeed(), m: make(map[uint64]weak.Pointer[Format])}

// intern returns the live format Identical to f (its encoded description
// byte for byte, defaults included), or records f and returns it. A live
// format with another description under f's key (a hash collision) keeps
// the slot, and f stays out of the table. f's encoding is at hand, so the
// comparison encodes only the live format.
func intern(f *Format) *Format {
	// Presized, as in computeFingerprint: a first append to nil is a tiny
	// allocation, which can share a block with this format's field names
	// and keep the block alive with them.
	enc := AppendFormat(make([]byte, 0, 256), f)
	key := maphash.Bytes(interned.seed, enc)
	interned.Lock()
	defer interned.Unlock()
	if old := interned.m[key].Value(); old != nil {
		if bytes.Equal(EncodeFormat(old), enc) {
			return old
		}
		return f
	}
	interned.m[key] = weak.Make(f)
	runtime.AddCleanup(f, unintern, key)
	return f
}

// unintern is a dead format's cleanup. It removes the entry under key only
// while that entry is dead too: once the format died, a later one may have
// taken the slot, and a live entry stays. (Naming the key, not the weak
// pointer, keeps each cleanup a word smaller.)
func unintern(key uint64) {
	interned.Lock()
	if interned.m[key].Value() == nil {
		delete(interned.m, key)
	}
	interned.Unlock()
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

// validateField checks one field of a format being built and fills in its
// default size. A Sub format is not walked: it was validated when it was
// built, and it is immutable and may be shared, so it is never written
// here (nor can it contain the format being built). An Elem may belong to
// a live format when the fields came from its Fields, so the size is
// written only when it changes.
func validateField(fld *Field) error {
	if !fld.Kind.IsValid() {
		return fmt.Errorf("invalid kind %v", fld.Kind)
	}
	if d := fld.Kind.DefaultSize(); fld.Size == 0 && d != 0 {
		fld.Size = d
	}
	if !fld.Kind.validSize(fld.Size) {
		return fmt.Errorf("kind %v cannot have size %d", fld.Kind, fld.Size)
	}
	switch fld.Kind {
	case Complex:
		if fld.Sub == nil {
			return errors.New("complex field needs a Sub format")
		}
	case List:
		if fld.Elem == nil {
			return errors.New("list field needs an Elem descriptor")
		}
		if fld.Elem.Kind == List {
			return errors.New("list of list is not supported; wrap the inner list in a complex field")
		}
		if err := validateField(fld.Elem); err != nil {
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
// format's own, not a copy, and must not be modified: one format object is
// shared by everything in the process that names it.
func (f *Format) Field(i int) *Field { return &f.fields[i] }

// Lookup returns the index of the field with the given name, or -1.
func (f *Format) Lookup(name string) int {
	idx, m := f.byName, posMask(len(f.fields))
	h := nameHash(name) &^ m
	// The hashes are uniform, so an entry sits near its hash's share of
	// the index: start there and step to the first entry >= h.
	k := int(uint64(h) * uint64(len(idx)) >> 32)
	for k > 0 && idx[k-1] >= h {
		k--
	}
	for k < len(idx) && idx[k] < h {
		k++
	}
	for ; k < len(idx) && idx[k]&^m == h; k++ {
		if i := int(idx[k] & m); f.fields[i].Name == name {
			return i
		}
	}
	return -1
}

// posMask selects the field position in a byName entry of a format with n
// fields: the fewest low bits that hold n.
func posMask(n int) uint32 { return 1<<bits.Len(uint(n)) - 1 }

// nameSeed keys the name hash per process, so a peer cannot choose field
// names whose hashes collide and turn Lookup into a scan.
var nameSeed = rand.Uint64()

// nameHash is the high half of a 64-bit FNV-1a hash of name whose offset
// basis is nameSeed; a byName entry keeps the bits above posMask. It is
// inline code, not hash/maphash, because maphash's calls cost a quarter more
// on MaxMatch over 32 candidates, which is nearly all Lookup.
func nameHash(name string) uint32 {
	h := nameSeed
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return uint32(h >> 32)
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
func (f *Format) Weight() int {
	w := 0
	for i := range f.fields {
		w += fieldWeight(&f.fields[i])
	}
	return w
}

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
// fingerprints alone (SameStructure) are the identity on the hot path; two
// formats are interned as one object only when they are Identical, so a
// fingerprint collision can never swap one structure for another.
func Identical(a, b *Format) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.fingerprint != b.fingerprint {
		return false
	}
	return bytes.Equal(EncodeFormat(a), EncodeFormat(b))
}

func fieldWeight(fld *Field) int {
	switch fld.Kind {
	case Complex:
		return fld.Sub.Weight()
	case List:
		return fieldWeight(fld.Elem)
	default:
		return 1
	}
}

func computeFingerprint(f *Format) uint64 {
	h := fnv.New64a()
	h.Write(appendFormatSig(make([]byte, 0, 256), f))
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
