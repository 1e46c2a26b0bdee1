package pbio

// Layout is the byte-level layout analysis of a Format: the classification
// the encoded fast lane is built on. A format is *fixed-stride* when its
// encoded payload has the same length for every record — no strings and no
// dynamic lists anywhere in its field tree. For such formats every field
// lives at a statically known byte offset, so encoded payloads can be
// addressed, validated, and transformed directly as bytes, without
// materializing a Record (the analog of PBIO operating on native-layout
// buffers instead of a generic tree).
//
// Formats that are not fully fixed still get partial information: the run of
// leading fields before the first variable-width one (the fixed *prefix*)
// keeps static offsets, enabling direct addressing of those fields in any
// payload of the format.
//
// Layouts are computed at most once per Format and cached; Layout() is safe
// for concurrent use.
type Layout struct {
	fixed        bool
	size         int   // total payload size when fixed
	prefixFields int   // leading top-level fields with static offsets
	prefixSize   int   // bytes covered by the fixed prefix
	offsets      []int // byte offset of each fixed-prefix field
	widths       []int // encoded width of each fixed-prefix field
}

// Layout returns the (cached) layout analysis of the format. Goroutines that
// race on the first call may each analyze the format, but all of them get
// the one Layout that was stored first.
func (f *Format) Layout() *Layout {
	if l := f.layout.Load(); l != nil {
		return l
	}
	f.layout.CompareAndSwap(nil, analyzeLayout(f))
	return f.layout.Load()
}

func analyzeLayout(f *Format) *Layout {
	l := &Layout{
		offsets: make([]int, 0, len(f.fields)),
		widths:  make([]int, 0, len(f.fields)),
	}
	off := 0
	n := 0
	for i := range f.fields {
		w, ok := fieldFixedWidth(&f.fields[i])
		if !ok {
			break
		}
		l.offsets = append(l.offsets, off)
		l.widths = append(l.widths, w)
		off += w
		n++
	}
	l.prefixFields = n
	l.prefixSize = off
	l.fixed = n == len(f.fields)
	if l.fixed {
		l.size = off
	}
	return l
}

// fieldFixedWidth returns the encoded width of a field when that width is
// the same for every record, and ok=false for variable-width fields
// (strings, lists, and complex fields containing either).
func fieldFixedWidth(fld *Field) (int, bool) {
	switch fld.Kind {
	case Integer, Unsigned, Char, Enum, Boolean, Float:
		return fld.Size, true
	case Complex:
		sub := fld.Sub.Layout()
		if !sub.fixed {
			return 0, false
		}
		return sub.size, true
	default: // String, List
		return 0, false
	}
}

// Fixed reports whether every record of the format encodes to the same
// number of payload bytes.
func (l *Layout) Fixed() bool { return l.fixed }

// Size returns the payload size of a fixed-stride format, and 0 when the
// format is not fixed.
func (l *Layout) Size() int { return l.size }

// PrefixFields returns how many leading top-level fields have static byte
// offsets (all of them for a fixed format).
func (l *Layout) PrefixFields() int { return l.prefixFields }

// PrefixSize returns the number of payload bytes covered by the fixed
// prefix.
func (l *Layout) PrefixSize() int { return l.prefixSize }

// FieldSpan returns the byte offset and encoded width of the i-th top-level
// field. ok is false when the field is beyond the fixed prefix, i.e. its
// offset depends on the message.
func (l *Layout) FieldSpan(i int) (off, width int, ok bool) {
	if i < 0 || i >= l.prefixFields {
		return 0, 0, false
	}
	return l.offsets[i], l.widths[i], true
}
