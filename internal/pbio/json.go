package pbio

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// JSON rendering of records and values, for diagnostics and tooling
// (commands print records; operators grep logs). This
// is a one-way export — the wire format is the binary codec, never JSON.

// MarshalJSON renders the record as an object in field declaration order.
func (r *Record) MarshalJSON() ([]byte, error) {
	return r.appendJSON(nil), nil
}

func (r *Record) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	for i := 0; i < r.format.NumFields(); i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, r.format.Field(i).Name)
		dst = append(dst, ':')
		dst = r.vals[i].appendJSON(dst)
	}
	return append(dst, '}')
}

// MarshalJSON renders a single value.
func (v Value) MarshalJSON() ([]byte, error) {
	return v.appendJSON(nil), nil
}

func (v Value) appendJSON(dst []byte) []byte {
	switch v.kind {
	case Invalid:
		return append(dst, "null"...)
	case Integer, Char, Enum:
		return strconv.AppendInt(dst, v.num, 10)
	case Unsigned:
		return strconv.AppendUint(dst, uint64(v.num), 10)
	case Boolean:
		if v.num != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case Float:
		// JSON has no NaN/Inf; render them as strings so the export never
		// produces invalid documents.
		if x := v.flt(); math.IsNaN(x) || math.IsInf(x, 0) {
			return appendJSONString(dst, strconv.FormatFloat(x, 'g', -1, 64))
		}
		return strconv.AppendFloat(dst, v.flt(), 'g', -1, 64)
	case String:
		return appendJSONString(dst, v.strv())
	case Complex:
		if v.recp() == nil {
			return append(dst, "null"...)
		}
		return v.recp().appendJSON(dst)
	case List:
		dst = append(dst, '[')
		for i, e := range v.lst() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = e.appendJSON(dst)
		}
		return append(dst, ']')
	default:
		return append(dst, "null"...)
	}
}

func appendJSONString(dst []byte, s string) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Strings always marshal; this is unreachable but keeps the export
		// total.
		return append(dst, fmt.Sprintf("%q", s)...)
	}
	return append(dst, b...)
}
