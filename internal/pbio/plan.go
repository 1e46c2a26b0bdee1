package pbio

import "fmt"

// NoSource is the PlanField source of a target field that no source field
// feeds: the field takes its Fill.
const NoSource = -1

// PlanField is how a Plan builds one field of its target format.
type PlanField struct {
	// Src is the index of the source field the value is read from, or
	// NoSource. The value is coerced into the target field exactly as
	// Record.SetIndex would coerce it.
	Src int

	// Sub is the plan for the nested record of a Complex field, or for
	// each element of a list of records; nil for every other field.
	Sub *Plan

	// Fill is the value a field with no source starts with, coerced into
	// the field as SetIndex would; the zero Value leaves the zero value
	// NewRecord gives the field.
	Fill Value
}

// Plan is a compiled conversion from records of one format to records of
// another: per target field, in target order, the source field it reads
// (with a nested plan for records) or a fill. It has two executors. Decode
// folds the conversion into decoding, reading a payload of the source
// format straight into a record of the target in a single pass, the way
// PBIO's receiver converts wire bytes straight into the layout it wants;
// Convert builds the target record from a source record. A nil *Plan is
// the identity: DecodePayload is Decode through it.
//
// A Plan is immutable and safe for concurrent use.
type Plan struct {
	from, to *Format     // to is nil for a plan that skips every field
	fields   []PlanField // one per field of to, fills coerced
	routes   []route     // one per field of from: where the decoder lands it
	unfilled []int       // target slots no source field feeds
}

// route is where the decoder lands one source field's value, derived from
// the target-ordered fields once, in NewPlan.
type route struct {
	slot int    // the target slot that reads the field, skip or fanned
	dst  *Field // slot's field
	sub  *Plan  // slot's nested plan
	fan  []int  // fanned: the slots a basic value is read into
}

// Route slots besides a target slot. The decoder still reads and validates
// a field it skips, but builds no value for it; it decodes a fanned field
// as itself and coerces the value into each slot that reads it.
const (
	skip   = -1
	fanned = -2
)

// NewPlan checks and builds the plan from records of from to records of
// to. fields holds one entry per field of to. A basic source field may
// feed several target fields; a record or a list may feed only one, since
// two targets would share its memory. A nil to, with nil fields, is the
// plan that skips every field: decoding through it validates a payload
// without building a record.
func NewPlan(from, to *Format, fields []PlanField) (*Plan, error) {
	p := &Plan{from: from, to: to, routes: make([]route, from.NumFields())}
	for i := range p.routes {
		p.routes[i].slot = skip
	}
	if to == nil {
		if fields != nil {
			return nil, fmt.Errorf("pbio: plan from %q has no target, but has fields", from.Name())
		}
		return p, nil
	}
	if len(fields) != to.NumFields() {
		return nil, fmt.Errorf("pbio: plan to %q: %d field entries for %d fields", to.Name(), len(fields), to.NumFields())
	}
	p.fields = append([]PlanField(nil), fields...)
	for j := range p.fields {
		pf, dst := &p.fields[j], &to.fields[j]
		if pf.Src == NoSource {
			p.unfilled = append(p.unfilled, j)
			if pf.Fill.IsZero() {
				continue
			}
			v, err := convertValue(dst, pf.Fill)
			if err != nil {
				return nil, fmt.Errorf("pbio: plan to %q: fill of field %q: %w", to.Name(), dst.Name, err)
			}
			pf.Fill = v
			continue
		}
		if pf.Src < 0 || pf.Src >= len(from.fields) {
			return nil, fmt.Errorf("pbio: plan %q→%q: field %q reads source %d, out of range", from.Name(), to.Name(), dst.Name, pf.Src)
		}
		src := &from.fields[pf.Src]
		if !pf.Fill.IsZero() {
			return nil, fmt.Errorf("pbio: plan to %q: field %q is both filled and read", to.Name(), dst.Name)
		}
		if err := planFits(src, dst, pf.Sub); err != nil {
			return nil, fmt.Errorf("pbio: plan %q→%q: field %q into %q: %w", from.Name(), to.Name(), src.Name, dst.Name, err)
		}
		switch rt := &p.routes[pf.Src]; {
		case rt.slot == skip:
			*rt = route{slot: j, dst: dst, sub: pf.Sub}
		case src.Kind == Complex || src.Kind == List:
			return nil, fmt.Errorf("pbio: plan %q→%q: field %q is read into %q and %q, which would share its memory",
				from.Name(), to.Name(), src.Name, rt.dst.Name, dst.Name)
		case rt.slot == fanned:
			rt.fan = append(rt.fan, j)
		default:
			rt.fan = []int{rt.slot, j}
			rt.slot = fanned
		}
	}
	return p, nil
}

// planFits checks that a value decoded as src may land in dst through sub:
// the kinds SetIndex would accept, and a nested plan between the records.
func planFits(src, dst *Field, sub *Plan) error {
	if src.Kind == List && dst.Kind == List {
		src, dst = src.Elem, dst.Elem
	}
	if src.Kind != Complex || dst.Kind != Complex {
		if sub != nil || !assignable(dst.Kind, src.Kind) {
			return fmt.Errorf("cannot decode %v as %v", src.Kind, dst.Kind)
		}
		return nil
	}
	if sub == nil || !sub.from.SameStructure(src.Sub) || sub.to == nil || !sub.to.SameStructure(dst.Sub) {
		return fmt.Errorf("nested plan does not lead from %q to %q", src.Sub.Name(), dst.Sub.Name())
	}
	return nil
}

// Field returns the entry of target field j, its fill coerced.
func (p *Plan) Field(j int) PlanField { return p.fields[j] }

// Decode decodes a payload (no envelope) of the plan's source format into
// a record of its target, with the validation and memory behaviour of
// DecodePayload. A plan with no target returns a nil record once the
// payload has passed DecodePayload's checks.
func (p *Plan) Decode(payload []byte) (*Record, error) {
	return decodePayload(payload, p.from, p, nil)
}

// Convert builds a record of the plan's target from rec, a record of its
// source format, as Decode would build it from rec's encoding. The result
// shares no memory with rec but its strings; the elements of each list of
// records share one allocation. A plan with no target returns nil.
func (p *Plan) Convert(rec *Record) (*Record, error) {
	if !rec.format.SameStructure(p.from) {
		return nil, fmt.Errorf("pbio: plan expects format %q (%016x), got %q (%016x)",
			p.from.Name(), p.from.Fingerprint(), rec.format.Name(), rec.format.Fingerprint())
	}
	if p.to == nil {
		return nil, nil
	}
	var s Slab
	s.Reserve(p.to, 1)
	return p.convert(rec, &s), nil
}

// convert is Convert's record executor, carving from s.
func (p *Plan) convert(rec *Record, s *Slab) *Record {
	r := p.carve(s)
	for j := range p.fields {
		if pf := &p.fields[j]; pf.Src != NoSource {
			r.vals[j] = convertInto(&p.to.fields[j], &p.from.fields[pf.Src], rec.vals[pf.Src], pf.Sub, s)
		}
	}
	return r
}

// convertInto converts v, a value of src, into dst through sub, carving a
// nested record from s.
func convertInto(dst, src *Field, v Value, sub *Plan, s *Slab) Value {
	switch src.Kind {
	case Complex:
		return RecordOf(sub.convert(v.recp(), s))
	case List:
		list := v.lst()
		elems := make([]Value, len(list))
		var es Slab
		if src.Elem.Kind == Complex {
			es.Reserve(sub.to, len(list))
		}
		for i, e := range list {
			elems[i] = convertInto(dst.Elem, src.Elem, e, sub, &es)
		}
		return ListOf(elems)
	default:
		return into(dst, src, v)
	}
}

// target is the format a record decoded from f through p has.
func (p *Plan) target(f *Format) *Format {
	if p == nil {
		return f
	}
	return p.to
}

// route says where field i of f, the plan's source, lands: its target
// slot (skip, or fanned: see fanOut), the target field and the nested plan.
func (p *Plan) route(f *Format, i int) (slot int, dst *Field, sub *Plan) {
	if p == nil {
		return i, &f.fields[i], nil
	}
	rt := &p.routes[i]
	return rt.slot, rt.dst, rt.sub
}

// fanOut stores v, the value of source field i decoded as itself, in each
// slot of r that reads it, coerced into that slot's field.
func (p *Plan) fanOut(r *Record, i int, v Value) {
	src := &p.from.fields[i]
	for _, j := range p.routes[i].fan {
		r.vals[j] = into(&p.to.fields[j], src, v)
	}
}

// carve returns a record of the plan's target, carved from s with every
// slot no source field fills already set; nil when p has no target. The
// decoders carve for the nil (identity) plan themselves.
func (p *Plan) carve(s *Slab) *Record {
	if p.to == nil {
		return nil
	}
	r := s.carve(p.to)
	for _, j := range p.unfilled {
		switch fld := &p.to.fields[j]; {
		case !p.fields[j].Fill.IsZero():
			r.vals[j] = p.fields[j].Fill
		case fld.Kind == Complex:
			r.vals[j] = RecordOf(s.NewRecord(fld.Sub))
		default:
			r.vals[j].kind = fld.Kind
		}
	}
	return r
}

// into coerces v, decoded as src, into dst as SetIndex would; a value of
// the field's own kind and width is left as it is.
func into(dst, src *Field, v Value) Value {
	if dst == src || dst.Kind == src.Kind && dst.Size == src.Size {
		return v
	}
	return coerce(dst, v)
}
