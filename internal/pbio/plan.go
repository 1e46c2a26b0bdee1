package pbio

import "fmt"

// Skip is the PlanField slot of a source field a Plan drops. The decoder
// still reads and validates the field, but builds no value for it.
const Skip = -1

// PlanField is what a Plan does with one field of its source format.
type PlanField struct {
	// Slot is the index of the target field the value lands in, or Skip.
	// The value is coerced into that field exactly as Record.SetIndex
	// would coerce it.
	Slot int

	// Sub is the plan for the nested record of a Complex field, or for
	// each element of a list of records; nil for every other field.
	Sub *Plan
}

// Plan is a conversion folded into decoding: Decode reads a payload of one
// format into a record of another in a single pass, the way PBIO's
// receiver converts wire bytes straight into the layout it wants.
// Each field of the source, in wire order, lands in a target slot or is
// skipped; each target slot that no source field fills gets a fill value.
// A nil *Plan is the identity: DecodePayload is Decode through it.
//
// A Plan is immutable and safe for concurrent use.
type Plan struct {
	from, to *Format     // to is nil for a plan that skips every field
	fields   []PlanField // one per field of from
	fill     []Value     // per target slot: its fill, coerced; zero where a source field lands
	unfilled []int       // target slots no source field fills
}

// NewPlan checks and builds the plan that decodes payloads of from into
// records of to. fields holds one entry per field of from. fill, when not
// nil, holds one value per field of to: the value a slot no source field
// fills starts with, coerced into the field as SetIndex would, or the zero
// Value for the zero value NewRecord gives the field. A nil to, with nil
// fields and fill, is the plan that skips every field: decoding through it
// validates a payload without building a record.
func NewPlan(from, to *Format, fields []PlanField, fill []Value) (*Plan, error) {
	if to == nil {
		if fields != nil || fill != nil {
			return nil, fmt.Errorf("pbio: plan from %q has no target, but has fields or fills", from.Name())
		}
		p := &Plan{from: from, fields: make([]PlanField, from.NumFields())}
		for i := range p.fields {
			p.fields[i].Slot = Skip
		}
		return p, nil
	}
	if len(fields) != from.NumFields() {
		return nil, fmt.Errorf("pbio: plan from %q: %d field entries for %d fields", from.Name(), len(fields), from.NumFields())
	}
	p := &Plan{from: from, to: to, fields: append([]PlanField(nil), fields...)}
	if fill != nil && len(fill) != to.NumFields() {
		return nil, fmt.Errorf("pbio: plan to %q: %d fill values for %d fields", to.Name(), len(fill), to.NumFields())
	}
	p.fill = make([]Value, to.NumFields())
	filled := make([]bool, to.NumFields())
	for i, pf := range fields {
		if pf.Slot == Skip {
			continue
		}
		src := &from.fields[i]
		if pf.Slot < 0 || pf.Slot >= len(filled) || filled[pf.Slot] {
			return nil, fmt.Errorf("pbio: plan %q→%q: field %q has slot %d, out of range or taken", from.Name(), to.Name(), src.Name, pf.Slot)
		}
		filled[pf.Slot] = true
		if err := planFits(src, &to.fields[pf.Slot], pf.Sub); err != nil {
			return nil, fmt.Errorf("pbio: plan %q→%q: field %q into %q: %w", from.Name(), to.Name(), src.Name, to.fields[pf.Slot].Name, err)
		}
	}
	for j := range filled {
		if filled[j] {
			if fill != nil && !fill[j].IsZero() {
				return nil, fmt.Errorf("pbio: plan to %q: field %q is both filled and read", to.Name(), to.fields[j].Name)
			}
			continue
		}
		p.unfilled = append(p.unfilled, j)
		if fill == nil || fill[j].IsZero() {
			continue
		}
		v, err := convertValue(&to.fields[j], fill[j])
		if err != nil {
			return nil, fmt.Errorf("pbio: plan to %q: fill of field %q: %w", to.Name(), to.fields[j].Name, err)
		}
		p.fill[j] = v
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

// Decode decodes a payload (no envelope) of the plan's source format into
// a record of its target, with the validation and memory behaviour of
// DecodePayload. A plan with no target returns a nil record once the
// payload has passed DecodePayload's checks.
func (p *Plan) Decode(payload []byte) (*Record, error) {
	return decodePayload(payload, p.from, p)
}

// target is the format a record decoded from f through p has.
func (p *Plan) target(f *Format) *Format {
	if p == nil {
		return f
	}
	return p.to
}

// route says where field i of f, the plan's source, lands: its target
// slot (Skip to drop it), the target field and the nested plan.
func (p *Plan) route(f *Format, i int) (slot int, dst *Field, sub *Plan) {
	if p == nil {
		return i, &f.fields[i], nil
	}
	pf := &p.fields[i]
	if pf.Slot == Skip {
		return Skip, nil, nil
	}
	return pf.Slot, &p.to.fields[pf.Slot], pf.Sub
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
		case !p.fill[j].IsZero():
			r.vals[j] = p.fill[j]
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
