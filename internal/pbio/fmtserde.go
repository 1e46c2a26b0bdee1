package pbio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Format meta-data serialization. A Format is itself serializable so that it
// can travel out-of-band: the wire package pushes EncodeFormat blobs over a
// control frame the first time a connection uses a format, and receivers
// reconstruct the Format with DecodeFormat. This is what lets the data
// frames carry only an 8-byte fingerprint.

const (
	formatBlobVersion = 1

	defaultAbsent  = 0
	defaultPresent = 1
)

// ErrBadFormatBlob is wrapped by DecodeFormat failures.
var ErrBadFormatBlob = errors.New("pbio: malformed format blob")

// EncodeFormat serializes the format's complete structural description.
func EncodeFormat(f *Format) []byte {
	return AppendFormat(nil, f)
}

// AppendFormat appends the serialized description of f to dst.
func AppendFormat(dst []byte, f *Format) []byte {
	dst = append(dst, formatBlobVersion)
	return appendFormatBody(dst, f)
}

func appendFormatBody(dst []byte, f *Format) []byte {
	dst = appendString(dst, f.name)
	dst = binary.AppendUvarint(dst, uint64(len(f.fields)))
	for i := range f.fields {
		dst = appendFieldDesc(dst, &f.fields[i])
	}
	return dst
}

func appendFieldDesc(dst []byte, fld *Field) []byte {
	dst = appendString(dst, fld.Name)
	dst = append(dst, byte(fld.Kind), byte(fld.Size))
	switch fld.Kind {
	case Complex:
		dst = appendFormatBody(dst, fld.Sub)
	case List:
		dst = appendFieldDesc(dst, fld.Elem)
	case Enum:
		dst = binary.AppendUvarint(dst, uint64(len(fld.Symbols)))
		for _, s := range fld.Symbols {
			dst = appendString(dst, s)
		}
	}
	if fld.Default.IsZero() || !fld.Kind.IsBasic() {
		return append(dst, defaultAbsent)
	}
	dst = append(dst, defaultPresent)
	switch fld.Kind {
	case Float:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(fld.Default.Float64()))
	case String:
		dst = appendString(dst, fld.Default.Strval())
	default:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(fld.Default.Int64()))
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeFormat reconstructs a Format from a blob produced by EncodeFormat.
// The returned Format is fully validated, so a malicious or corrupt blob
// cannot produce a format that later panics the encoder or decoder.
func DecodeFormat(blob []byte) (*Format, error) {
	d := decoder{buf: blob}
	ver, err := d.take(1)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormatBlob, err)
	}
	if ver[0] != formatBlobVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormatBlob, ver[0])
	}
	f, err := decodeFormatBody(&d, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormatBlob, err)
	}
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFormatBlob, len(d.buf)-d.pos)
	}
	return f, nil
}

// maxFormatDepth bounds nesting so that a hostile blob cannot exhaust the
// stack through deep recursion.
const maxFormatDepth = 64

func decodeFormatBody(d *decoder, depth int) (*Format, error) {
	if depth > maxFormatDepth {
		return nil, errors.New("format nesting too deep")
	}
	name, err := decodeString(d)
	if err != nil {
		return nil, err
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)-d.pos) {
		return nil, fmt.Errorf("field count %d exceeds remaining blob", n)
	}
	fields := make([]Field, n)
	for i := range fields {
		fld, err := decodeFieldDesc(d, depth)
		if err != nil {
			return nil, fmt.Errorf("field %d: %w", i, err)
		}
		fields[i] = fld
	}
	return newFormat(name, fields)
}

func decodeFieldDesc(d *decoder, depth int) (Field, error) {
	name, err := decodeString(d)
	if err != nil {
		return Field{}, err
	}
	hdr, err := d.take(2)
	if err != nil {
		return Field{}, err
	}
	fld := Field{Name: name, Kind: Kind(hdr[0]), Size: int(hdr[1])}
	switch fld.Kind {
	case Complex:
		sub, err := decodeFormatBody(d, depth+1)
		if err != nil {
			return Field{}, err
		}
		fld.Sub = sub
	case List:
		if depth >= maxFormatDepth {
			return Field{}, errors.New("format nesting too deep")
		}
		elem, err := decodeFieldDesc(d, depth+1)
		if err != nil {
			return Field{}, err
		}
		fld.Elem = &elem
	case Enum:
		n, err := d.uvarint()
		if err != nil {
			return Field{}, err
		}
		if n > uint64(len(d.buf)-d.pos) {
			return Field{}, fmt.Errorf("symbol count %d exceeds remaining blob", n)
		}
		if n > 0 {
			fld.Symbols = make([]string, n)
			for i := range fld.Symbols {
				if fld.Symbols[i], err = decodeString(d); err != nil {
					return Field{}, err
				}
			}
		}
	}
	flag, err := d.take(1)
	if err != nil {
		return Field{}, err
	}
	if flag[0] == defaultPresent {
		switch fld.Kind {
		case Float:
			b, err := d.take(8)
			if err != nil {
				return Field{}, err
			}
			fld.Default = Float64(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		case String:
			s, err := decodeString(d)
			if err != nil {
				return Field{}, err
			}
			fld.Default = Str(s)
		default:
			b, err := d.take(8)
			if err != nil {
				return Field{}, err
			}
			fld.Default = Int(int64(binary.LittleEndian.Uint64(b)))
		}
	}
	return fld, nil
}

func decodeString(d *decoder) (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	b, err := d.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}
