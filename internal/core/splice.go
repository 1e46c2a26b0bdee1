package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pbio"
)

// Splice programs are the byte-level fast lane of the delivery pipeline:
// a conversion plan (pbio.Plan, the one plan IR) between two fixed-stride
// formats (pbio.Layout) compiled down to precomputed copy runs plus a
// literal template for filled fields.
// Executing one is a handful of memcpys on the encoded payload — no Record
// is materialized, no Value is boxed — which is this reproduction's closest
// analog to the paper's point that morphing stays near native speed because
// transformations run as compiled code over native buffers rather than
// through a generic materialized representation.
//
// A plan compiles iff both formats are fixed-stride and every field it
// copies is exact — identical kind and wire width on both sides, as fitOf
// decides — so a byte copy equals the record lane's decode→coerce→encode.
// Anything else — strings, lists, width changes, ecode transformation
// steps — falls back to the record lane; correctness never depends on
// spliceability.
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

// compileSplice lowers a Converter's plan to a splice program, or reports
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
	if !p.addPlan(c.Plan, c.from, c.to, 0, 0) {
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

// addPlan appends copy runs for one plan level from → to, with the given
// payload base offsets (non-zero when recursing into nested complex
// fields). It returns false when any field cannot be a byte copy.
func (p *spliceProgram) addPlan(plan *pbio.Plan, from, to *pbio.Format, srcBase, dstBase int) bool {
	sl, dl := from.Layout(), to.Layout()
	for j := 0; j < to.NumFields(); j++ {
		pf := plan.Field(j)
		if pf.Src == pbio.NoSource {
			continue // baked into the template
		}
		dstOff, _, ok := dl.FieldSpan(j)
		if !ok {
			return false
		}
		srcOff, n, ok := sl.FieldSpan(pf.Src)
		if !ok {
			return false
		}
		src, dst := from.Field(pf.Src), to.Field(j)
		switch {
		case src.Kind == pbio.Complex && dst.Kind == pbio.Complex:
			if !p.addPlan(pf.Sub, src.Sub, dst.Sub, srcBase+srcOff, dstBase+dstOff) {
				return false
			}
		case fitOf(src, dst) == fitExact:
			p.runs = append(p.runs, spliceRun{srcOff: srcBase + srcOff, dstOff: dstBase + dstOff, n: n})
		default:
			return false // a width or kind change needs the record lane's coercion
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
