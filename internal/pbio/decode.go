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
// the string). The elements of a list of records share one allocation. A
// record decoded through a Plan holds its memory the same way: the strings
// it keeps are substrings of one payload copy, made at the first kept
// non-empty string, and a plan that keeps no string makes no copy.
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
// It is Plan.Decode through the identity plan: one decoder serves both. A
// plan changes what is built, never what is checked — a field the plan
// skips is read and validated like any other, so a payload decodes through
// a plan exactly when it decodes without one.
//
// Fixed-stride formats (Layout().Fixed()) take a fast path: the payload
// length is validated once up front — for such formats a correct length is
// full validation, since no field is variable-width — and the fields are
// then read at their static offsets with no per-field bounds checks; a
// plan reads only the fields it keeps.
func DecodePayload(data []byte, f *Format) (*Record, error) {
	return decodePayload(data, f, nil, nil)
}

// DecodePayload decodes data, a payload of f, as the package-level
// DecodePayload does, but carves the record, its nested records, its list
// element arrays and their records from s, which grows to fit. The string
// copy of the payload is still made afresh, so the record's strings outlive
// it. The record is valid until s's next Rewind. A caller that rewinds s
// once it is done with each record decodes like-sized payloads with at most
// one allocation, the string copy. A payload that fails to decode leaves s
// as safe to Rewind as one that decodes.
func (s *Slab) DecodePayload(data []byte, f *Format) (*Record, error) {
	return decodePayload(data, f, nil, s)
}

// decodePayload is the one decoder: data, a payload of f, into a record
// through p (nil for the identity), carved from s, or from fresh memory
// sized to the record when s is nil.
func decodePayload(data []byte, f *Format, p *Plan, s *Slab) (*Record, error) {
	l := f.Layout()
	if l.Fixed() {
		switch {
		case len(data) < l.size:
			return nil, fmt.Errorf("%w: %d bytes, fixed format %q needs %d",
				ErrShortMessage, len(data), f.Name(), l.size)
		case len(data) > l.size:
			return nil, fmt.Errorf("%w: %d of %d bytes consumed", ErrTrailingData, l.size, len(data))
		}
	}
	d := decoder{buf: data, reuse: s != nil}
	if s == nil {
		s = new(Slab)
		if to := p.target(f); to != nil {
			s.Reserve(to, 1)
		}
	}
	if l.Fixed() {
		return decodeFixedRecord(data, f, p, s), nil
	}
	r, err := d.record(f, p, s)
	if err != nil {
		return nil, err
	}
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("%w: %d of %d bytes consumed", ErrTrailingData, d.pos, len(d.buf))
	}
	if d.overrun != nil {
		return nil, d.overrun
	}
	return r, nil
}

// decodeFixedRecord decodes data, a length-validated payload of the
// fixed-stride format f, through p, carving the record and its nested
// records from s. It must produce exactly the Values the general decoder
// would (sign extension, boolean normalization, float32 widening), since
// both lanes of the morphing engine feed the same handlers.
func decodeFixedRecord(data []byte, f *Format, p *Plan, s *Slab) *Record {
	l := f.Layout()
	if p == nil {
		// A loop of its own: route and into are measurable on a plain
		// decode of a small record.
		r := s.carve(f)
		for i := range f.fields {
			r.vals[i] = decodeFixedValue(data[l.offsets[i]:], &f.fields[i], nil, s)
		}
		return r
	}
	r := p.carve(s)
	for i := range f.fields {
		src := &f.fields[i]
		switch slot, dst, sub := p.route(f, i); slot {
		case skip:
		case fanned:
			p.fanOut(r, i, decodeFixedValue(data[l.offsets[i]:], src, nil, s))
		default:
			r.vals[slot] = into(dst, src, decodeFixedValue(data[l.offsets[i]:], src, sub, s))
		}
	}
	return r
}

// decodeFixedValue decodes the value of fld at the start of data.
func decodeFixedValue(data []byte, fld *Field, sub *Plan, s *Slab) Value {
	switch fld.Kind {
	case Integer:
		return Value{kind: Integer, num: fixedSigned(data, fld.Size)}
	case Unsigned:
		return Value{kind: Unsigned, num: fixedUnsigned(data, fld.Size)}
	case Char:
		return Value{kind: Char, num: int64(data[0])}
	case Enum:
		return Value{kind: Enum, num: fixedSigned(data, fld.Size)}
	case Boolean:
		return Bool(data[0] != 0)
	case Float:
		if fld.Size == 4 {
			return Float64(float64(math.Float32frombits(binary.LittleEndian.Uint32(data))))
		}
		return Float64(math.Float64frombits(binary.LittleEndian.Uint64(data)))
	default: // Complex: the only structured kind a fixed format can hold
		return RecordOf(decodeFixedRecord(data, fld.Sub, sub, s))
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
	// reuse says the slab is the caller's: every record and list array
	// comes from it. Otherwise each list gets one of its own.
	reuse bool
	// overrun is the error of the first loop whose bound was past its
	// list's end (Each), which the decode returns once the whole payload
	// has decoded.
	overrun error
}

// record decodes a record of f through p, carving it and its nested
// records from s. A field p skips is still read and validated.
func (d *decoder) record(f *Format, p *Plan, s *Slab) (*Record, error) {
	var r *Record
	if p == nil {
		r = s.carve(f)
	} else {
		r = p.carve(s)
	}
	if err := d.fields(r, f, p, s); err != nil {
		return nil, err
	}
	return r, nil
}

// fields decodes the fields of a record of f through p into r.
func (d *decoder) fields(r *Record, f *Format, p *Plan, s *Slab) error {
	var bound Value // the value of p's bound field, once read
	for i := range f.fields {
		src := &f.fields[i]
		var err error
		switch slot, dst, sub := p.route(f, i); slot {
		case skip:
			err = d.skip(src)
		case fanned:
			var v Value
			v, err = d.value(src, src, nil, s)
			p.fanOut(r, i, v)
			if p.loop != nil && i == p.loop.bound {
				bound = v
			}
		case looped:
			err = d.each(r, p, i, bound)
		default:
			r.vals[slot], err = d.value(src, dst, sub, s)
		}
		if err != nil {
			return fmt.Errorf("field %q of %q: %w", src.Name, f.Name(), err)
		}
	}
	return nil
}

// each decodes list field i of p's source, whose entries all have an Each,
// into their slots of r. Every element is read and validated; each one
// the bound admits is decoded once, the fields its entries read landing in
// scratch values, from which every entry whose guard it passes builds its
// own element. bound is the value of p's bound field. The lists get a
// slab of their own: only Plan.Decode runs a plan, never into a caller's
// slab.
func (d *decoder) each(r *Record, p *Plan, i int, bound Value) error {
	src, rt := &p.from.fields[i], &p.routes[i]
	c, err := d.count(src)
	if err != nil {
		return err
	}
	n, err := p.moved(bound, c, rt.fan[0])
	if err != nil && d.overrun == nil {
		d.overrun = err
	}
	es, recs, nv := new(Slab), 0, 0
	for _, j := range rt.fan {
		er, ev := p.fields[j].Sub.to.Footprint()
		recs, nv = recs+n*er, nv+n*(1+ev)
	}
	es.Grow(recs, nv)
	// Scratch and list headers live on the stack when they fit.
	var valBuf [8]Value
	var listBuf [4][]Value
	elem := src.Elem.Sub
	vals, lists := valBuf[:0], listBuf[:0]
	if len(elem.fields) > len(valBuf) {
		vals = make([]Value, 0, len(elem.fields))
	}
	if len(rt.fan) > len(listBuf) {
		lists = make([][]Value, 0, len(rt.fan))
	}
	vals = vals[:len(elem.fields)]
	for range rt.fan {
		lists = append(lists, es.values(n)[:0])
	}
	for e := range c {
		if e >= n {
			err = d.skip(src.Elem)
		} else if err = d.gather(vals, elem, p.loop.keep[i], es); err == nil {
			for t, j := range rt.fan {
				pf := &p.fields[j]
				if g := pf.Each.Guard; g == NoSource || vals[g].Bool() {
					lists[t] = append(lists[t], RecordOf(pf.Sub.convert(vals, es)))
				}
			}
		}
		if err != nil {
			return fmt.Errorf("element %d: %w", e, err)
		}
	}
	for t, j := range rt.fan {
		p.closeList(r, j, lists[t])
	}
	return nil
}

// gather decodes a record of f into vals, building only the fields keep
// marks; the others are read and validated.
func (d *decoder) gather(vals []Value, f *Format, keep []bool, s *Slab) error {
	for k := range f.fields {
		fld := &f.fields[k]
		var err error
		if keep[k] {
			vals[k], err = d.value(fld, fld, nil, s)
		} else {
			err = d.skip(fld)
		}
		if err != nil {
			return fmt.Errorf("field %q of %q: %w", fld.Name, f.Name(), err)
		}
	}
	return nil
}

// value decodes a value of src, coerced into dst (src itself for a plain
// decode); sub is the plan for a nested record or a list's element records.
func (d *decoder) value(src, dst *Field, sub *Plan, s *Slab) (Value, error) {
	switch src.Kind {
	case Integer:
		n, err := d.fixedInt(src.Size, true)
		return into(dst, src, Value{kind: Integer, num: n}), err
	case Unsigned:
		n, err := d.fixedInt(src.Size, false)
		return into(dst, src, Value{kind: Unsigned, num: n}), err
	case Char:
		n, err := d.fixedInt(1, false)
		return into(dst, src, Value{kind: Char, num: n}), err
	case Enum:
		n, err := d.fixedInt(src.Size, true)
		return into(dst, src, Value{kind: Enum, num: n}), err
	case Boolean:
		n, err := d.fixedInt(1, false)
		return into(dst, src, Bool(n != 0)), err
	case Float:
		b, err := d.take(src.Size)
		if err != nil {
			return Value{}, err
		}
		if src.Size == 4 {
			return into(dst, src, Float64(float64(math.Float32frombits(binary.LittleEndian.Uint32(b))))), nil
		}
		return into(dst, src, Float64(math.Float64frombits(binary.LittleEndian.Uint64(b)))), nil
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
		rec, err := d.record(src.Sub, sub, s)
		if err != nil {
			return Value{}, err
		}
		return RecordOf(rec), nil
	case List:
		n, err := d.count(src)
		if err != nil {
			return Value{}, err
		}
		var elems []Value
		es := s
		if d.reuse {
			elems = s.values(n)
		} else {
			// The elements of a list of records share one exact-size slab.
			elems = make([]Value, n)
			es = new(Slab)
			if src.Elem.Kind == Complex {
				es.Reserve(sub.target(src.Elem.Sub), n)
			}
		}
		for i := range elems {
			e, err := d.value(src.Elem, dst.Elem, sub, es)
			if err != nil {
				return Value{}, fmt.Errorf("element %d: %w", i, err)
			}
			elems[i] = e
		}
		return ListOf(elems), nil
	default:
		return Value{}, fmt.Errorf("pbio: cannot decode field kind %v", src.Kind)
	}
}

// skip reads and validates a value of fld, as value would, without
// building it.
func (d *decoder) skip(fld *Field) error {
	switch fld.Kind {
	case Integer, Unsigned, Char, Enum, Boolean, Float:
		_, err := d.take(fld.Size)
		return err
	case String:
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		_, err = d.take(int(n))
		return err
	case Complex:
		for i := range fld.Sub.fields {
			if err := d.skip(&fld.Sub.fields[i]); err != nil {
				return fmt.Errorf("field %q of %q: %w", fld.Sub.fields[i].Name, fld.Sub.Name(), err)
			}
		}
		return nil
	case List:
		n, err := d.count(fld)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := d.skip(fld.Elem); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("pbio: cannot decode field kind %v", fld.Kind)
	}
}

// count reads the element count of a list field.
func (d *decoder) count(fld *Field) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if rest := len(d.buf) - d.pos; n > uint64(rest/max(minWidth(fld.Elem), 1)) {
		// Each element occupies at least its minimum width (and at
		// least one byte), so a count the remaining buffer cannot hold
		// is corrupt; reject it before allocating.
		return 0, fmt.Errorf("%w: list count %d exceeds remaining %d bytes",
			ErrShortMessage, n, rest)
	}
	return int(n), nil
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
