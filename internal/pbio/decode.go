package pbio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Decoding errors.
var (
	// ErrShortMessage indicates the buffer ended before the format said it
	// should.
	ErrShortMessage = errors.New("pbio: message truncated")

	// ErrTrailingData indicates bytes remained after the final field.
	ErrTrailingData = errors.New("pbio: trailing bytes after record")

	// ErrFingerprint indicates the message's fingerprint does not match the
	// format the caller tried to decode it with.
	ErrFingerprint = errors.New("pbio: format fingerprint mismatch")
)

// PeekFingerprint extracts the format fingerprint from an encoded message
// without decoding the payload.
func PeekFingerprint(data []byte) (uint64, error) {
	if len(data) < EnvelopeSize {
		return 0, fmt.Errorf("%w: %d bytes, need %d for envelope", ErrShortMessage, len(data), EnvelopeSize)
	}
	return binary.LittleEndian.Uint64(data), nil
}

// DecodeRecord decodes an enveloped message produced by EncodeRecord,
// verifying that the embedded fingerprint matches f.
//
// The decoded record owns its memory; data may be reused as soon as the call
// returns. Its strings are substrings of one copy of the payload, made at
// the first non-empty string, so a caller that keeps any one of them keeps
// up to one payload's bytes alive (copy it, e.g. strings.Clone, to keep just
// the string). The elements of a list of records share one allocation.
func DecodeRecord(data []byte, f *Format) (*Record, error) {
	fp, err := PeekFingerprint(data)
	if err != nil {
		return nil, err
	}
	if fp != f.Fingerprint() {
		return nil, fmt.Errorf("%w: message %016x, format %q is %016x",
			ErrFingerprint, fp, f.Name(), f.Fingerprint())
	}
	return DecodePayload(data[EnvelopeSize:], f)
}

// DecodePayload decodes raw field data (no envelope) against f, with the
// memory behaviour DecodeRecord describes. The entire buffer must be
// consumed.
//
// Fixed-stride formats (Layout().Fixed()) take a fast path: the payload
// length is validated once up front — for such formats a correct length is
// full validation, since no field is variable-width — and the fields are
// then read at their static offsets with no per-field bounds checks.
func DecodePayload(data []byte, f *Format) (*Record, error) {
	if l := f.Layout(); l.Fixed() {
		switch {
		case len(data) < l.size:
			return nil, fmt.Errorf("%w: %d bytes, fixed format %q needs %d",
				ErrShortMessage, len(data), f.Name(), l.size)
		case len(data) > l.size:
			return nil, fmt.Errorf("%w: %d of %d bytes consumed", ErrTrailingData, l.size, len(data))
		}
		return decodeFixed(data, f), nil
	}
	d := decoder{buf: data}
	var s Slab
	s.Reserve(f, 1)
	r, err := d.record(f, &s)
	if err != nil {
		return nil, err
	}
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("%w: %d of %d bytes consumed", ErrTrailingData, d.pos, len(d.buf))
	}
	return r, nil
}

// decodeFixed reads a length-validated payload of a fixed-stride format.
// It must produce exactly the Values the general decoder would (sign
// extension, boolean normalization, float32 widening), since both lanes of
// the morphing engine feed the same handlers.
func decodeFixed(data []byte, f *Format) *Record {
	var s Slab
	s.Reserve(f, 1)
	r, _ := decodeFixedRecord(data, 0, f, &s)
	return r
}

// decodeFixedRecord decodes a record of f at data[off:], carving it and its
// nested records from s, and returns the offset just past it.
func decodeFixedRecord(data []byte, off int, f *Format, s *Slab) (*Record, int) {
	r := s.carve(f)
	for i := range f.fields {
		r.vals[i], off = decodeFixedValue(data, off, &f.fields[i], s)
	}
	return r, off
}

func decodeFixedValue(data []byte, off int, fld *Field, s *Slab) (Value, int) {
	switch fld.Kind {
	case Integer:
		return Value{kind: Integer, num: fixedSigned(data[off:], fld.Size)}, off + fld.Size
	case Unsigned:
		return Value{kind: Unsigned, num: fixedUnsigned(data[off:], fld.Size)}, off + fld.Size
	case Char:
		return Value{kind: Char, num: int64(data[off])}, off + 1
	case Enum:
		return Value{kind: Enum, num: fixedSigned(data[off:], fld.Size)}, off + fld.Size
	case Boolean:
		return Bool(data[off] != 0), off + 1
	case Float:
		if fld.Size == 4 {
			return Float64(float64(math.Float32frombits(binary.LittleEndian.Uint32(data[off:])))), off + 4
		}
		return Float64(math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))), off + 8
	default: // Complex: the only structured kind a fixed format can hold
		sub, off := decodeFixedRecord(data, off, fld.Sub, s)
		return RecordOf(sub), off
	}
}

func fixedSigned(b []byte, size int) int64 {
	switch size {
	case 1:
		return int64(int8(b[0]))
	case 2:
		return int64(int16(binary.LittleEndian.Uint16(b)))
	case 4:
		return int64(int32(binary.LittleEndian.Uint32(b)))
	default:
		return int64(binary.LittleEndian.Uint64(b))
	}
}

func fixedUnsigned(b []byte, size int) int64 {
	switch size {
	case 1:
		return int64(b[0])
	case 2:
		return int64(binary.LittleEndian.Uint16(b))
	case 4:
		return int64(binary.LittleEndian.Uint32(b))
	default:
		return int64(binary.LittleEndian.Uint64(b))
	}
}

type decoder struct {
	buf []byte
	pos int
	str string // copy of buf that decoded strings slice; made at the first one
}

// record decodes a record of f, carving it and its nested records from s.
func (d *decoder) record(f *Format, s *Slab) (*Record, error) {
	r := s.carve(f)
	for i := range f.fields {
		v, err := d.value(&f.fields[i], s)
		if err != nil {
			return nil, fmt.Errorf("field %q of %q: %w", f.fields[i].Name, f.Name(), err)
		}
		r.vals[i] = v
	}
	return r, nil
}

func (d *decoder) value(fld *Field, s *Slab) (Value, error) {
	switch fld.Kind {
	case Integer:
		n, err := d.fixedInt(fld.Size, true)
		return Value{kind: Integer, num: n}, err
	case Unsigned:
		n, err := d.fixedInt(fld.Size, false)
		return Value{kind: Unsigned, num: n}, err
	case Char:
		n, err := d.fixedInt(1, false)
		return Value{kind: Char, num: n}, err
	case Enum:
		n, err := d.fixedInt(fld.Size, true)
		return Value{kind: Enum, num: n}, err
	case Boolean:
		n, err := d.fixedInt(1, false)
		return Bool(n != 0), err
	case Float:
		if fld.Size == 4 {
			b, err := d.take(4)
			if err != nil {
				return Value{}, err
			}
			return Float64(float64(math.Float32frombits(binary.LittleEndian.Uint32(b)))), nil
		}
		b, err := d.take(8)
		if err != nil {
			return Value{}, err
		}
		return Float64(math.Float64frombits(binary.LittleEndian.Uint64(b))), nil
	case String:
		n, err := d.uvarint()
		if err != nil {
			return Value{}, err
		}
		if _, err := d.take(int(n)); err != nil {
			return Value{}, err
		}
		if n == 0 {
			return Str(""), nil
		}
		if d.str == "" {
			d.str = string(d.buf)
		}
		return Str(d.str[d.pos-int(n) : d.pos]), nil
	case Complex:
		rec, err := d.record(fld.Sub, s)
		if err != nil {
			return Value{}, err
		}
		return RecordOf(rec), nil
	case List:
		n, err := d.uvarint()
		if err != nil {
			return Value{}, err
		}
		if rest := len(d.buf) - d.pos; n > uint64(rest/max(minWidth(fld.Elem), 1)) {
			// Each element occupies at least its minimum width (and at
			// least one byte), so a count the remaining buffer cannot hold
			// is corrupt; reject it before allocating.
			return Value{}, fmt.Errorf("%w: list count %d exceeds remaining %d bytes",
				ErrShortMessage, n, rest)
		}
		elems := make([]Value, n)
		// The elements of a list of records share one exact-size slab.
		var es Slab
		if fld.Elem.Kind == Complex {
			es.Reserve(fld.Elem.Sub, int(n))
		}
		for i := range elems {
			e, err := d.value(fld.Elem, &es)
			if err != nil {
				return Value{}, fmt.Errorf("element %d: %w", i, err)
			}
			elems[i] = e
		}
		return ListOf(elems), nil
	default:
		return Value{}, fmt.Errorf("pbio: cannot decode field kind %v", fld.Kind)
	}
}

// minWidth is the fewest payload bytes a value of fld encodes to.
func minWidth(fld *Field) int {
	switch fld.Kind {
	case String, List:
		return 1 // the length varint
	case Complex:
		w := 0
		for i := range fld.Sub.fields {
			w += minWidth(&fld.Sub.fields[i])
		}
		return w
	default:
		return fld.Size
	}
}

func (d *decoder) take(n int) ([]byte, error) {
	if n < 0 || len(d.buf)-d.pos < n {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d, have %d",
			ErrShortMessage, n, d.pos, len(d.buf)-d.pos)
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

func (d *decoder) fixedInt(size int, signed bool) (int64, error) {
	b, err := d.take(size)
	if err != nil {
		return 0, err
	}
	switch size {
	case 1:
		if signed {
			return int64(int8(b[0])), nil
		}
		return int64(b[0]), nil
	case 2:
		u := binary.LittleEndian.Uint16(b)
		if signed {
			return int64(int16(u)), nil
		}
		return int64(u), nil
	case 4:
		u := binary.LittleEndian.Uint32(b)
		if signed {
			return int64(int32(u)), nil
		}
		return int64(u), nil
	default:
		return int64(binary.LittleEndian.Uint64(b)), nil
	}
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrShortMessage, d.pos)
	}
	if n > 1 && d.buf[d.pos+n-1] == 0 {
		// A zero final byte is padding the encoder never writes; refusing
		// it keeps every payload a message's one encoding.
		return 0, fmt.Errorf("%w: non-minimal varint at offset %d", ErrShortMessage, d.pos)
	}
	d.pos += n
	return v, nil
}
