package core

import "repro/internal/pbio"

// Name-wise pairing is the one question morphing asks of two formats: which
// same-named fields correspond, and how does a value of one reach the
// other? fitOf answers it for two fields and pairing.walk for two formats.
// Algorithm 1 (Diff, MismatchRatio, MaxMatch with or without a Weigher),
// DiffReport and the Converter plan — and through the plan the splice
// compiler — all read that one walk, so none of them can disagree with
// another about a field.

// fit classifies a pair of same-named fields.
type fit uint8

const (
	fitNone    fit = iota // incompatible: the source is dropped and the target defaulted
	fitExact              // same basic kind and wire width: a byte copy carries the value
	fitCoerced            // compatible basic kinds of different kind or width: a value copy
	fitNested             // complex↔complex (directly or as list elements): pair the sub-formats
)

// fitOf is the compatibility rule of name-wise morphing. A list pairs only
// with a list, through its element type. Complex pairs with complex; any
// numeric kind (integer, unsigned, float, char, enum, boolean) converts
// into any other, and a string only into a string.
func fitOf(a, b *pbio.Field) fit {
	if (a.Kind == pbio.List) != (b.Kind == pbio.List) {
		return fitNone
	}
	a, b = item(a), item(b)
	switch {
	case a.Kind == pbio.Complex && b.Kind == pbio.Complex:
		return fitNested
	case !a.Kind.IsBasic() || !b.Kind.IsBasic(), (a.Kind == pbio.String) != (b.Kind == pbio.String):
		return fitNone
	case a.Kind == b.Kind && a.Size == b.Size:
		return fitExact
	}
	return fitCoerced
}

// item is the descriptor of f's values: a list's element type, otherwise f
// itself. Format validation excludes lists of lists, so one step suffices.
func item(f *pbio.Field) *pbio.Field {
	if f.Kind == pbio.List {
		return f.Elem
	}
	return f
}

// pairing is one walk over two formats a and b together with what its
// readers collect. The zero value counts the paper's unit weights and
// builds no path, report or plan, so Diff, MismatchRatio and an unweighted
// MaxMatch allocate nothing.
type pairing struct {
	weigh  Weigher // importance of a basic field; nil weighs every one 1
	report bool    // collect changes, for DiffReport
	plan   bool    // build the plan a → b, for NewConverter

	dropped float64 // weight of a's fields b cannot hold: Diff(a, b)
	filled  float64 // weight of b's fields a cannot supply: Diff(b, a)
	weight  float64 // weight of all of b: W(b)

	path    []byte // dot path of the current field, built only for weigh or report
	changes []FieldChange
}

// walk pairs b's fields, in b's order, with a's same-named fields and
// recurses into nested pairs; a's fields that b lacks come last. With plan
// set it returns the conversion plan a → b: per field of b, the field of a
// it reads, or b's declared default.
func (p *pairing) walk(a, b *pbio.Format) *pbio.Plan {
	var fields []pbio.PlanField
	if p.plan {
		fields = make([]pbio.PlanField, 0, b.NumFields())
	}
	// paired marks which of a's first 64 fields the loop over b found, so
	// the loop over a looks up in b only the fields beyond them.
	var paired uint64
	for j := 0; j < b.NumFields(); j++ {
		fb := b.Field(j)
		mark := p.enter(fb.Name)
		i, how := a.Lookup(fb.Name), fitNone
		var fa *pbio.Field
		if i >= 0 {
			fa = a.Field(i)
			how = fitOf(fa, fb)
			if i < 64 {
				paired |= 1 << i
			}
		}
		var sub *pbio.Plan
		switch how {
		case fitNested:
			sub = p.walk(item(fa).Sub, item(fb).Sub)
		case fitNone:
			w := p.weightOf(fb)
			p.filled += w
			p.weight += w
			if fa == nil {
				p.note(FieldAdded, nil, fb)
			} else {
				p.dropped += p.weightOf(fa)
				p.note(FieldRetyped, fa, fb)
			}
		default:
			p.weight += p.leaf(item(fb))
			if how == fitCoerced {
				p.note(FieldResized, fa, fb)
			}
		}
		if p.plan {
			pf := pbio.PlanField{Src: i, Sub: sub}
			if how == fitNone {
				pf = pbio.PlanField{Src: pbio.NoSource, Fill: fb.Default}
			}
			fields = append(fields, pf)
		}
		p.path = p.path[:mark]
	}
	for i := 0; i < a.NumFields(); i++ {
		fa := a.Field(i)
		if i < 64 && paired&(1<<i) != 0 || i >= 64 && b.Lookup(fa.Name) >= 0 {
			continue
		}
		mark := p.enter(fa.Name)
		p.dropped += p.weightOf(fa)
		p.note(FieldRemoved, fa, nil)
		p.path = p.path[:mark]
	}
	if !p.plan {
		return nil
	}
	plan, err := pbio.NewPlan(a, b, fields)
	if err != nil {
		panic("core: name-wise pairing built a plan pbio refuses: " + err.Error()) // fitOf admits only what SetIndex accepts
	}
	return plan
}

// mismatch is M_r read off a walk: the share of W(b) that a cannot supply,
// 0 for a weightless b.
func (p *pairing) mismatch() float64 {
	if p.weight == 0 {
		return 0
	}
	return p.filled / p.weight
}

// enter extends the path by name when a reader needs paths, returning the
// length to cut it back to.
func (p *pairing) enter(name string) int {
	mark := len(p.path)
	if p.weigh != nil || p.report {
		if mark > 0 {
			p.path = append(p.path, '.')
		}
		p.path = append(p.path, name...)
	}
	return mark
}

// weightOf is f's share of W: one per basic field, or its importance,
// summed through complex fields and list elements.
func (p *pairing) weightOf(f *pbio.Field) float64 {
	f = item(f)
	switch {
	case f.Kind != pbio.Complex:
		return p.leaf(f)
	case p.weigh == nil:
		return float64(f.Sub.Weight())
	}
	w := 0.0
	for i := 0; i < f.Sub.NumFields(); i++ {
		sf := f.Sub.Field(i)
		mark := p.enter(sf.Name)
		w += p.weightOf(sf)
		p.path = p.path[:mark]
	}
	return w
}

// leaf is the weight of one basic field at the current path; a list's
// element type stands for the list.
func (p *pairing) leaf(f *pbio.Field) float64 {
	if p.weigh == nil {
		return 1
	}
	return p.weigh(string(p.path), f)
}

// note records a DiffReport change at the current path.
func (p *pairing) note(kind ChangeKind, fa, fb *pbio.Field) {
	if !p.report {
		return
	}
	c := FieldChange{Path: string(p.path), Kind: kind}
	if fa != nil {
		c.From = fieldDesc(fa)
	}
	if fb != nil {
		c.To = fieldDesc(fb)
	}
	p.changes = append(p.changes, c)
}
