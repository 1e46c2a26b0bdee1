package core

import (
	"encoding/binary"
	"errors"
	"fmt"

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
