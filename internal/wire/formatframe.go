package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/pbio"
)

// AppendFormatFrame appends the body of a format control frame (kind
// KindFormat) announcing f with its associated transformation meta-data —
// the inverse of ParseFormatFrame. The format registry stores and serves its
// entries in this same layout.
func AppendFormatFrame(dst []byte, f *pbio.Format, xforms []*core.Xform) []byte {
	blob := pbio.EncodeFormat(f)
	dst = binary.AppendUvarint(dst, uint64(len(blob)))
	dst = append(dst, blob...)
	dst = binary.AppendUvarint(dst, uint64(len(xforms)))
	for _, x := range xforms {
		xb := core.EncodeXform(x)
		dst = binary.AppendUvarint(dst, uint64(len(xb)))
		dst = append(dst, xb...)
	}
	return dst
}

func (c *Conn) handleFormatFrame(body []byte) error {
	f, xforms, err := ParseFormatFrame(body, c.morpher != nil || c.formatHook != nil)
	if err != nil {
		return err
	}
	return c.adoptFormat(f, xforms, false)
}

// ParseFormatFrame decodes the body of a format control frame (kind
// KindFormat) into the format it announces and its associated transformation
// meta-data. When validateXforms is set, transform code that does not compile
// against its own formats is rejected now, at meta-data time, instead of
// poisoning the first delivery — the live read path enables this whenever a
// Morpher or format hook will consume the transforms. Offline decoders (the
// morphtap capture reader) parse with validation off.
func ParseFormatFrame(body []byte, validateXforms bool) (*pbio.Format, []*core.Xform, error) {
	rest := body
	next := func() ([]byte, error) {
		n, used := binary.Uvarint(rest)
		if used <= 0 || n > uint64(len(rest)-used) {
			return nil, fmt.Errorf("%w: format frame chunk", ErrBadFrame)
		}
		chunk := rest[used : used+int(n)]
		rest = rest[used+int(n):]
		return chunk, nil
	}
	blob, err := next()
	if err != nil {
		return nil, nil, err
	}
	f, err := pbio.DecodeFormat(blob)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}

	nx, used := binary.Uvarint(rest)
	if used <= 0 {
		return nil, nil, fmt.Errorf("%w: transform count", ErrBadFrame)
	}
	rest = rest[used:]
	var xforms []*core.Xform
	for i := uint64(0); i < nx; i++ {
		xb, err := next()
		if err != nil {
			return nil, nil, err
		}
		x, err := core.DecodeXform(xb)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: transform %d: %v", ErrBadFrame, i, err)
		}
		if validateXforms {
			if err := x.Validate(); err != nil {
				return nil, nil, fmt.Errorf("%w: transform %d: %v", ErrBadFrame, i, err)
			}
		}
		xforms = append(xforms, x)
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes in format frame", ErrBadFrame, len(rest))
	}
	return f, xforms, nil
}

// adoptFormat installs a format (and its transformation meta-data) into the
// read-side cache, whether it arrived in-band (format frame) or out-of-band
// (registry resolution). validate re-checks transform code for the registry
// path, where the format-frame handler's eager validation did not run.
func (c *Conn) adoptFormat(f *pbio.Format, xforms []*core.Xform, validate bool) error {
	if validate && (c.morpher != nil || c.formatHook != nil) {
		for i, x := range xforms {
			if err := x.Validate(); err != nil {
				return fmt.Errorf("%w: registry transform %d: %v", ErrBadFrame, i, err)
			}
		}
	}
	if c.morpher != nil {
		for _, x := range xforms {
			if err := c.morpher.AddTransform(x); err != nil {
				return err
			}
		}
	}
	fp := f.Fingerprint()
	c.recvFormats[fp] = f
	delete(c.requested, fp)
	if c.formatHook != nil {
		c.formatHook(f, xforms)
	}
	return nil
}
