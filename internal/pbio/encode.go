package pbio

import (
	"encoding/binary"
	"fmt"
	"math"
)

// EnvelopeSize is the per-message meta-data overhead of a PBIO-encoded
// message: an 8-byte format fingerprint. All remaining meta-data travels
// out-of-band. (The paper reports "less than 30 bytes" of added data; the
// wire package's frame header adds a few more bytes on top of this.)
const EnvelopeSize = 8

// EncodeRecord encodes r as fingerprint + payload and returns the buffer.
// The buffer is allocated exactly once, at the message's final size.
func EncodeRecord(r *Record) []byte {
	return AppendRecord(make([]byte, 0, EncodedSize(r)), r)
}

// AppendRecord appends the encoded form of r (fingerprint + payload) to dst
// and returns the extended buffer. When dst lacks capacity it is grown once,
// to the exact final size, instead of reallocating per field — a caller that
// keeps its buffer between records (echo's Publish) therefore reaches a
// zero-allocation steady state.
func AppendRecord(dst []byte, r *Record) []byte {
	if need := EncodedSize(r); cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	dst = binary.LittleEndian.AppendUint64(dst, r.format.Fingerprint())
	return AppendPayload(dst, r)
}

// AppendPayload appends only the field data of r, without the fingerprint
// envelope.
func AppendPayload(dst []byte, r *Record) []byte {
	for i := range r.vals {
		dst = appendValue(dst, r.format.Field(i), r.vals[i])
	}
	return dst
}

func appendValue(dst []byte, fld *Field, v Value) []byte {
	switch fld.Kind {
	case Integer, Unsigned, Char, Enum, Boolean:
		return appendFixedInt(dst, v.num, fld.Size)
	case Float:
		if fld.Size == 4 {
			return binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v.flt())))
		}
		return binary.LittleEndian.AppendUint64(dst, uint64(v.num))
	case String:
		dst = binary.AppendUvarint(dst, uint64(v.n))
		return append(dst, v.strv()...)
	case Complex:
		rec := v.recp()
		if rec == nil {
			rec = NewRecord(fld.Sub)
		}
		return AppendPayload(dst, rec)
	case List:
		dst = binary.AppendUvarint(dst, uint64(v.n))
		for _, e := range v.lst() {
			dst = appendValue(dst, fld.Elem, e)
		}
		return dst
	default:
		// Unreachable for validated formats.
		panic(fmt.Sprintf("pbio: cannot encode field kind %v", fld.Kind))
	}
}

func appendFixedInt(dst []byte, n int64, size int) []byte {
	switch size {
	case 1:
		return append(dst, byte(n))
	case 2:
		return binary.LittleEndian.AppendUint16(dst, uint16(n))
	case 4:
		return binary.LittleEndian.AppendUint32(dst, uint32(n))
	default:
		return binary.LittleEndian.AppendUint64(dst, uint64(n))
	}
}

// EncodedSize returns the exact number of bytes EncodeRecord would produce
// for r, including the envelope.
func EncodedSize(r *Record) int {
	return EnvelopeSize + payloadSize(r)
}

func payloadSize(r *Record) int {
	total := 0
	for i := range r.vals {
		total += valueSize(r.format.Field(i), r.vals[i])
	}
	return total
}

func valueSize(fld *Field, v Value) int {
	switch fld.Kind {
	case Integer, Unsigned, Char, Enum, Boolean, Float:
		return fld.Size
	case String:
		return uvarintLen(uint64(v.n)) + v.n
	case Complex:
		if v.recp() == nil {
			return payloadSize(NewRecord(fld.Sub))
		}
		return payloadSize(v.recp())
	case List:
		total := uvarintLen(uint64(v.n))
		for _, e := range v.lst() {
			total += valueSize(fld.Elem, e)
		}
		return total
	default:
		return 0
	}
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
