package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pbio"
)

// Splice programs are the byte-level fast lane of the delivery pipeline:
// a Converter plan between two fixed-stride formats (pbio.Layout) compiled
// down to precomputed copy runs plus a literal template for filled fields.
// Executing one is a handful of memcpys on the encoded payload — no Record
// is materialized, no Value is boxed — which is this reproduction's closest
// analog to the paper's point that morphing stays near native speed because
// transformations run as compiled code over native buffers rather than
// through a generic materialized representation.
//
// A plan compiles iff both formats are fixed-stride and every copy step is
// exact — identical kind and wire width on both sides, as fitOf decided
// when the plan was built — so a byte copy equals the record lane's
// decode→coerce→encode. Anything else — strings, lists,
// width changes, ecode transformation steps — falls back to the record
// lane; correctness never depends on spliceability.
//
// One representational note: the record lane normalizes boolean wire bytes
// (any non-zero decodes to 1) while a splice preserves the source byte.
// Payloads produced by EncodeRecord are always canonical, so the two lanes
// are byte-identical on anything this codebase emits.

// spliceRun is one contiguous copy: n bytes from the source payload at
// srcOff into the output payload at dstOff.
type spliceRun struct {
	srcOff, dstOff, n int
}

// spliceProgram is a compiled []byte → []byte conversion plan.
type spliceProgram struct {
	src, dst *pbio.Format
	srcSize  int // fixed payload size of src (validation)
	dstSize  int
	envelope [pbio.EnvelopeSize]byte // dst fingerprint, precomputed
	template []byte                  // dstSize bytes with default/zero fills baked in
	runs     []spliceRun             // coalesced copy runs, in dst order
}

// compileSplice lowers a Converter plan to a splice program, or reports
// ok=false when the plan is not expressible as pure byte copies.
func compileSplice(c *Converter) (*spliceProgram, bool) {
	sl, dl := c.from.Layout(), c.to.Layout()
	if !sl.Fixed() || !dl.Fixed() {
		return nil, false
	}
	p := &spliceProgram{
		src:     c.from,
		dst:     c.to,
		srcSize: sl.Size(),
		dstSize: dl.Size(),
	}
	binary.LittleEndian.PutUint64(p.envelope[:], c.to.Fingerprint())
	if !p.addConverter(c, 0, 0) {
		return nil, false
	}
	// The fill template is exactly what the record lane produces from an
	// all-zero source record: copied fields hold zeros (overwritten by the
	// runs at execution time) and filled fields hold their encoded defaults.
	// Deriving it by running the record lane once guarantees fill bytes are
	// byte-identical between lanes by construction.
	out, err := c.Convert(pbio.NewRecord(c.from))
	if err != nil {
		return nil, false
	}
	p.template = pbio.AppendPayload(make([]byte, 0, p.dstSize), out)
	if len(p.template) != p.dstSize {
		return nil, false // drift guard; unreachable for fixed formats
	}
	p.coalesce()
	return p, true
}

// addConverter appends copy runs for one converter level, with the given
// payload base offsets (non-zero when recursing into nested complex
// fields). It returns false when any step cannot be a byte copy.
func (p *spliceProgram) addConverter(c *Converter, srcBase, dstBase int) bool {
	dl := c.to.Layout()
	sl := c.from.Layout()
	for _, s := range c.steps {
		dstOff, _, ok := dl.FieldSpan(s.dstIdx)
		if !ok {
			return false
		}
		switch s.mode {
		case convFill:
			// Baked into the template; nothing to do at execution time.
		case convCopy:
			if !s.exact {
				return false // width/kind change needs the record lane's coercion
			}
			srcOff, n, ok := sl.FieldSpan(s.srcIdx)
			if !ok {
				return false
			}
			p.runs = append(p.runs, spliceRun{srcOff: srcBase + srcOff, dstOff: dstBase + dstOff, n: n})
		case convComplex:
			srcOff, _, ok := sl.FieldSpan(s.srcIdx)
			if !ok {
				return false
			}
			if !p.addConverter(s.sub, srcBase+srcOff, dstBase+dstOff) {
				return false
			}
		default: // strings and lists cannot appear in fixed-stride formats
			return false
		}
	}
	return true
}

// coalesce merges copy runs that are contiguous in both source and
// destination, so a reordering-free conversion collapses to a single copy.
// Runs are generated in destination order with strictly increasing dstOff,
// which is the only order coalescing needs.
func (p *spliceProgram) coalesce() {
	if len(p.runs) < 2 {
		return
	}
	out := p.runs[:1]
	for _, r := range p.runs[1:] {
		last := &out[len(out)-1]
		if last.srcOff+last.n == r.srcOff && last.dstOff+last.n == r.dstOff {
			last.n += r.n
			continue
		}
		out = append(out, r)
	}
	p.runs = out
}

// run executes the program on an enveloped source message, returning an
// enveloped message of the destination format. The output is the program's
// single allocation. A payload whose length does not match the source
// format's fixed stride is rejected — short (or long) payloads never have
// bytes copied out of them.
func (p *spliceProgram) run(data []byte) ([]byte, error) {
	if len(data) != pbio.EnvelopeSize+p.srcSize {
		return nil, fmt.Errorf("%w: splice lane: %d payload bytes, fixed format %q needs %d",
			pbio.ErrShortMessage, len(data)-pbio.EnvelopeSize, p.src.Name(), p.srcSize)
	}
	payload := data[pbio.EnvelopeSize:]
	out := make([]byte, pbio.EnvelopeSize+p.dstSize)
	copy(out, p.envelope[:])
	body := out[pbio.EnvelopeSize:]
	copy(body, p.template)
	for _, r := range p.runs {
		copy(body[r.dstOff:r.dstOff+r.n], payload[r.srcOff:])
	}
	return out, nil
}
