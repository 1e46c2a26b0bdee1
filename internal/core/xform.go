package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/ecode"
	"repro/internal/pbio"
)

// Parameter names a transformation's source text uses, following the
// paper's Figure 5: "new" is the incoming (newer-format) record, "old" the
// produced (older-format) record.
const (
	SrcParam = "new"
	DstParam = "old"
)

// Xform associates a snippet of transformation code with a format: it
// declares that a message of format From can be converted into format To by
// running Code (ecode source with parameters "new" and "old"). Senders
// attach Xforms to their new formats; the meta-data travels out-of-band
// with the format description, and receivers compile it on demand.
type Xform struct {
	From *pbio.Format
	To   *pbio.Format
	Code string
}

// Validate checks the Xform is structurally complete and that its code
// compiles against its formats. Receivers call this before trusting
// network-supplied transformation meta-data.
func (x *Xform) Validate() error {
	if x.From == nil || x.To == nil {
		return errors.New("core: transform needs both From and To formats")
	}
	_, err := x.compile()
	return err
}

// Share returns x with its From and To formats replaced by the copies an
// owner already holds: lookup maps a fingerprint to the owner's format, or
// nil, and a copy replaces x's own only when pbio.Identical says it is the
// same format. It never writes through x, which the caller may share (a
// Register's arguments, a Morpher's transforms): it returns x itself when
// nothing changes, and a new Xform otherwise.
func (x *Xform) Share(lookup func(fp uint64) *pbio.Format) *Xform {
	from, to := shareFormat(x.From, lookup), shareFormat(x.To, lookup)
	if from == x.From && to == x.To {
		return x
	}
	return &Xform{From: from, To: to, Code: x.Code}
}

func shareFormat(f *pbio.Format, lookup func(fp uint64) *pbio.Format) *pbio.Format {
	if f == nil {
		return nil
	}
	if o := lookup(f.Fingerprint()); o != nil && pbio.Identical(o, f) {
		return o
	}
	return f
}

// ShareAll applies Share to every transform in xs. It returns xs itself when
// nothing changes and a new slice otherwise, so the caller's slice is never
// written either.
func ShareAll(xs []*Xform, lookup func(fp uint64) *pbio.Format) []*Xform {
	out, copied := xs, false
	for i, x := range xs {
		s := x.Share(lookup)
		if s == x {
			continue
		}
		if !copied {
			out, copied = slices.Clone(xs), true
		}
		out[i] = s
	}
	return out
}

// compile type-checks the transform's code and builds its closure tree.
// This is the morphing analog of the paper's dynamic code generation step
// (Algorithm 2 line 22); the Morpher invokes it at most once per cached
// decision.
func (x *Xform) compile() (*ecode.Program, error) {
	return ecode.Compile(x.Code,
		ecode.Param{Name: SrcParam, Format: x.From},
		ecode.Param{Name: DstParam, Format: x.To})
}

// EncodeXform serializes a transform (format blobs + code) for out-of-band
// transport alongside its format meta-data.
func EncodeXform(x *Xform) []byte {
	fromBlob := pbio.EncodeFormat(x.From)
	toBlob := pbio.EncodeFormat(x.To)
	out := make([]byte, 0, len(fromBlob)+len(toBlob)+len(x.Code)+16)
	out = binary.AppendUvarint(out, uint64(len(fromBlob)))
	out = append(out, fromBlob...)
	out = binary.AppendUvarint(out, uint64(len(toBlob)))
	out = append(out, toBlob...)
	out = binary.AppendUvarint(out, uint64(len(x.Code)))
	out = append(out, x.Code...)
	return out
}

// DecodeXform reconstructs a transform from EncodeXform output.
func DecodeXform(blob []byte) (*Xform, error) {
	var x Xform
	rest := blob
	next := func() ([]byte, error) {
		n, used := binary.Uvarint(rest)
		if used <= 0 || n > uint64(len(rest)-used) {
			return nil, errors.New("core: malformed transform blob")
		}
		chunk := rest[used : used+int(n)]
		rest = rest[used+int(n):]
		return chunk, nil
	}
	fromBlob, err := next()
	if err != nil {
		return nil, err
	}
	if x.From, err = pbio.DecodeFormat(fromBlob); err != nil {
		return nil, fmt.Errorf("core: transform From format: %w", err)
	}
	toBlob, err := next()
	if err != nil {
		return nil, err
	}
	if x.To, err = pbio.DecodeFormat(toBlob); err != nil {
		return nil, fmt.Errorf("core: transform To format: %w", err)
	}
	code, err := next()
	if err != nil {
		return nil, err
	}
	x.Code = string(code)
	if len(rest) != 0 {
		return nil, errors.New("core: trailing bytes in transform blob")
	}
	return &x, nil
}
