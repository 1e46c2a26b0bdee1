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

	// Each, for a list of records read from a source list of records,
	// says which of the source's elements the list gets; nil gives it
	// every element.
	Each *Each
}

// Each is a list entry's loop: the target list gets, in order, the
// source list's elements that its bound admits and its guard passes,
// each built through the entry's element plan (PlanField.Sub). A target
// list that gets no element keeps the zero value NewRecord gives it.
type Each struct {
	// Bound is a basic integer source field, which must precede the list
	// in the source: only the list's first Bound elements are moved (none
	// when it is not positive). A bound past the list's end fails the
	// decode or conversion with the Overrun error — after the whole
	// payload has decoded, so a payload that does not decode still fails
	// with the decoder's own error. The elements past the bound are read
	// and validated but not built. NoSource moves every element. All the
	// entries of one plan share one bound.
	Bound int

	// Guard is a Boolean field of the source element: only the elements
	// in which it is true are moved. NoSource moves every element.
	Guard int

	// Count is a numeric target field no other entry feeds, which takes
	// the number of elements the list got, coerced as SetIndex would
	// coerce an Int, or keeps its zero value when the list got none.
	// NoSource counts nothing.
	Count int

	// Overrun is the error of a bound past the end of a list of length
	// elements. An Each with a Bound must have one.
	Overrun func(length int) error
}

// Plan is a compiled conversion from records of one format to records of
// another: per target field, in target order, the source field it reads
// (with a nested plan for records, and a loop for lists that take some of
// their source's elements) or a fill. It has two executors. Decode
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
	loop     *loop       // nil unless some entry has an Each
}

// loop is what the decoder needs of a plan's Each entries, besides its
// looped routes.
type loop struct {
	bound int      // the source field every Each's Bound names, or NoSource
	keep  [][]bool // per looped source list: the element fields its entries read
}

// route is where the decoder lands one source field's value, derived from
// the target-ordered fields once, in NewPlan.
type route struct {
	slot int    // the target slot that reads the field, skip, fanned or looped
	dst  *Field // slot's field; looped: the last list's
	sub  *Plan  // slot's nested plan
	fan  []int  // fanned: the slots a basic value is read into; looped: the lists built
}

// Route slots besides a target slot. The decoder still reads and validates
// a field it skips, but builds no value for it; it decodes a fanned field
// as itself and coerces the value into each slot that reads it. A looped
// field is a list whose entries all have an Each: the decoder reads each
// element it moves once, into scratch values, and builds every entry's
// element from those.
const (
	skip   = -1
	fanned = -2
	looped = -3
)

// NewPlan checks and builds the plan from records of from to records of
// to. fields holds one entry per field of to. A basic source field may
// feed several target fields; a record or a list may feed only one, since
// two targets would share its memory — except that a list may feed
// several entries that all have an Each, each of which builds its own
// elements. Only the top plan may have Each entries, and NewPlan refuses
// a bound that does not precede its list in the source or has no Overrun.
// A nil to, with nil fields, is the plan that skips every field: decoding
// through it validates a payload without building a record.
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
		if pf.Each != nil {
			if err := p.checkEach(j, fields); err != nil {
				return nil, fmt.Errorf("pbio: plan %q→%q: list %q into %q: %w", from.Name(), to.Name(), src.Name, dst.Name, err)
			}
		}
		switch rt := &p.routes[pf.Src]; {
		case pf.Each != nil && (rt.slot == skip || rt.slot == looped):
			rt.slot, rt.dst, rt.fan = looped, dst, append(rt.fan, j)
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
	p.routeLoops()
	return p, nil
}

// checkEach checks the Each of entry j, whose list and element plan fit.
func (p *Plan) checkEach(j int, fields []PlanField) error {
	pf, src := &p.fields[j], &p.from.fields[p.fields[j].Src]
	e := pf.Each
	if src.Kind != List || src.Elem.Kind != Complex {
		return fmt.Errorf("a loop needs a list of records")
	}
	switch {
	case e.Bound == NoSource:
	case e.Bound < 0 || e.Bound >= pf.Src:
		return fmt.Errorf("bound %d is not a source field before the list", e.Bound)
	case !countable(p.from.fields[e.Bound].Kind):
		return fmt.Errorf("bound %q is %v, not an integer", p.from.fields[e.Bound].Name, p.from.fields[e.Bound].Kind)
	case e.Overrun == nil:
		return fmt.Errorf("bound %q has no Overrun error", p.from.fields[e.Bound].Name)
	}
	if p.loop == nil {
		p.loop = &loop{bound: e.Bound, keep: make([][]bool, len(p.from.fields))}
	} else if p.loop.bound != e.Bound {
		return fmt.Errorf("bound %d, where another loop's is %d", e.Bound, p.loop.bound)
	}
	if g := e.Guard; g != NoSource && (g < 0 || g >= len(src.Elem.Sub.fields) || src.Elem.Sub.fields[g].Kind != Boolean) {
		return fmt.Errorf("guard %d is not a Boolean field of %q", g, src.Elem.Sub.Name())
	}
	if c := e.Count; c != NoSource {
		if c < 0 || c >= len(fields) || c == j || fields[c].Src != NoSource || !fields[c].Fill.IsZero() ||
			!assignable(p.to.fields[c].Kind, Integer) {
			return fmt.Errorf("count %d is not a numeric target field no other entry feeds", c)
		}
		for k := range fields[:j] {
			if o := fields[k].Each; o != nil && o.Count == c {
				return fmt.Errorf("count %q is counted twice", p.to.fields[c].Name)
			}
		}
	}
	return nil
}

// countable says a field of kind k holds an integer, which a loop bound
// compares as Value.Int64 reads it.
func countable(k Kind) bool {
	switch k {
	case Integer, Unsigned, Char, Enum, Boolean:
		return true
	}
	return false
}

// loops says p has an Each entry; nil has none.
func (p *Plan) loops() bool { return p != nil && p.loop != nil }

// routeLoops finishes the routes of a plan with Each entries: each looped
// list notes the element fields its entries read, which the decoder
// builds; and the bound is decoded as itself, so the decoder has its value
// when it reaches the list.
func (p *Plan) routeLoops() {
	if p.loop == nil {
		return
	}
	for i := range p.routes {
		rt := &p.routes[i]
		if rt.slot != looped {
			continue
		}
		keep := make([]bool, len(p.from.fields[i].Elem.Sub.fields))
		for _, j := range rt.fan {
			if g := p.fields[j].Each.Guard; g != NoSource {
				keep[g] = true
			}
			for _, ef := range p.fields[j].Sub.fields {
				if ef.Src != NoSource {
					keep[ef.Src] = true
				}
			}
		}
		p.loop.keep[i] = keep
	}
	if p.loop.bound == NoSource {
		return
	}
	switch rt := &p.routes[p.loop.bound]; rt.slot {
	case skip:
		rt.slot = fanned
	case fanned:
	default:
		rt.fan, rt.slot = []int{rt.slot}, fanned
	}
}

// planFits checks that a value decoded as src may land in dst through sub:
// the kinds SetIndex would accept, and a nested plan between the records,
// which has no loop.
func planFits(src, dst *Field, sub *Plan) error {
	if sub.loops() {
		return fmt.Errorf("the nested plan has a loop of its own")
	}
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
// source format, as Decode would build it from rec's encoding, and fails
// where Decode would: at the first list, in source order, whose bound
// (Each) is past its end. The result shares no memory with rec but its
// strings; the elements of each list of records share one allocation. A
// plan with no target returns nil.
func (p *Plan) Convert(rec *Record) (*Record, error) {
	if !rec.format.SameStructure(p.from) {
		return nil, fmt.Errorf("pbio: plan expects format %q (%016x), got %q (%016x)",
			p.from.Name(), p.from.Fingerprint(), rec.format.Name(), rec.format.Fingerprint())
	}
	if p.to == nil {
		return nil, nil
	}
	for i := range p.routes {
		if rt := &p.routes[i]; rt.slot == looped {
			if _, err := p.moved(p.boundIn(rec.vals), rec.vals[i].n, rt.fan[0]); err != nil {
				return nil, err
			}
		}
	}
	var s Slab
	s.Reserve(p.to, 1)
	return p.convert(rec.vals, &s), nil
}

// convert is Convert's record executor: it builds the target record from
// vals, the values of a source record, carving from s.
func (p *Plan) convert(vals []Value, s *Slab) *Record {
	r := p.carve(s)
	for j := range p.fields {
		switch pf := &p.fields[j]; {
		case pf.Src == NoSource:
		case pf.Each != nil:
			p.convertEach(r, j, vals)
		default:
			r.vals[j] = convertInto(&p.to.fields[j], &p.from.fields[pf.Src], vals[pf.Src], pf.Sub, s)
		}
	}
	return r
}

// convertEach builds list slot j of r, an Each entry's, from vals, the
// values of a source record whose bound Convert has checked.
func (p *Plan) convertEach(r *Record, j int, vals []Value) {
	pf := &p.fields[j]
	src := vals[pf.Src].lst()
	n, _ := p.moved(p.boundIn(vals), len(src), j)
	var es Slab
	recs, nv := pf.Sub.to.Footprint()
	es.Grow(n*recs, n*(1+nv))
	list := es.values(n)[:0]
	for _, e := range src[:n] {
		if g := pf.Each.Guard; g == NoSource || e.recp().vals[g].Bool() {
			list = append(list, RecordOf(pf.Sub.convert(e.recp().vals, &es)))
		}
	}
	p.closeList(r, j, list)
}

// boundIn is the value of the plan's bound field among vals, the values
// of a source record, if it has one.
func (p *Plan) boundIn(vals []Value) Value {
	if p.loop == nil || p.loop.bound == NoSource {
		return Value{}
	}
	return vals[p.loop.bound]
}

// moved returns how many of the length elements of a list the loop of
// entry j moves, given bound, the value of the plan's bound field, and the
// error of a bound past them (when it moves them all).
func (p *Plan) moved(bound Value, length, j int) (int, error) {
	if p.loop.bound == NoSource {
		return length, nil
	}
	switch b := bound.Int64(); {
	case b > int64(length):
		return length, p.fields[j].Each.Overrun(length)
	case b < 0:
		return 0, nil
	default:
		return int(b), nil
	}
}

// closeList stores list, the elements an Each entry built, in slot j of
// r: a list that got none keeps NewRecord's zero value, and the entry's
// count takes how many it got.
func (p *Plan) closeList(r *Record, j int, list []Value) {
	if len(list) == 0 {
		r.vals[j] = Value{kind: List}
		return
	}
	r.vals[j] = ListOf(list)
	if c := p.fields[j].Each.Count; c != NoSource {
		r.vals[c] = coerce(&p.to.fields[c], Int(int64(len(list))))
	}
}

// convertInto converts v, a value of src, into dst through sub, carving a
// nested record from s.
func convertInto(dst, src *Field, v Value, sub *Plan, s *Slab) Value {
	switch src.Kind {
	case Complex:
		return RecordOf(sub.convert(v.recp().vals, s))
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
