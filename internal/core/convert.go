package core

import (
	"fmt"

	"repro/internal/ecode"
	"repro/internal/pbio"
)

// Converter is a compiled name-wise conversion plan between two formats. It
// implements lines 26–29 of Algorithm 2: fields of the target that the
// source cannot supply are filled with the target's declared defaults (or
// zero values), and source fields absent from the target are dropped.
// Because matching is by name, a Converter also absorbs pure reorderings
// and nesting-preserving renames of width (sizes may differ; values are
// coerced).
//
// Building the plan costs one walk over both formats; converting a record
// is then a flat interpretation of precomputed steps — the same
// compile-once structure PBIO gets from generated code. A transform step
// that only moves fields runs as a Converter too, built from its Ecode
// field map by newMovePlan instead of from the name-wise walk.
type Converter struct {
	from, to *pbio.Format
	steps    []convStep
}

type convMode uint8

const (
	convFill        convMode = iota // no source: default or zero value
	convCopy                        // basic value, coerced into the target kind by SetIndex
	convComplex                     // recurse with sub-plan
	convList                        // list of basic values
	convListComplex                 // list of records, each through the sub-plan
)

type convStep struct {
	dstIdx int
	srcIdx int
	mode   convMode
	exact  bool       // convCopy between identical kinds and widths: a byte copy would do
	sub    *Converter // convComplex, convListComplex
	fill   pbio.Value // convFill with a declared default
}

// NewConverter builds the conversion plan from → to: one step per field of
// to, in to's order, read off the name-wise pairing of the two formats
// (pair.go).
func NewConverter(from, to *pbio.Format) *Converter {
	p := pairing{plan: true}
	return p.walk(from, to)
}

// newMovePlan builds the conversion plan from → to that an Ecode field map
// describes (ecode.Program.FieldMap): each move copies a source field, by
// index rather than by name, or fills a constant. A target field the map
// never names keeps the zero value pbio.NewRecord gives it, not its declared
// default, as it would after the program ran.
func newMovePlan(from, to *pbio.Format, moves []ecode.FieldMove) *Converter {
	c := &Converter{from: from, to: to, steps: make([]convStep, to.NumFields())}
	for j := range c.steps {
		c.steps[j] = convStep{dstIdx: j, srcIdx: -1, mode: convFill}
	}
	for _, mv := range moves {
		s := &c.steps[mv.Dst]
		if mv.Src < 0 {
			s.fill = mv.Const
			continue
		}
		s.srcIdx, s.mode = mv.Src, convCopy
		s.exact = fitOf(from.Field(mv.Src), to.Field(mv.Dst)) == fitExact
	}
	return c
}

// planStep is the step for target field dst (index j) given how it fits
// source field i, or i = -1 when the source has no field of that name; sub
// is the nested pair's plan.
func planStep(j, i int, how fit, dst *pbio.Field, sub *Converter) convStep {
	s := convStep{dstIdx: j, srcIdx: i, exact: how == fitExact, sub: sub}
	switch {
	case how == fitNone:
		s.srcIdx, s.mode, s.fill = -1, convFill, dst.Default
	case dst.Kind == pbio.List && sub != nil:
		s.mode = convListComplex
	case dst.Kind == pbio.List:
		s.mode = convList
	case sub != nil:
		s.mode = convComplex
	default:
		s.mode = convCopy
	}
	return s
}

// Dropped returns the names of source fields the plan discards (present in
// the source format, absent or incompatible in the target). Useful for
// diagnostics.
func (c *Converter) Dropped() []string {
	used := make(map[int]bool, len(c.steps))
	for _, s := range c.steps {
		if s.srcIdx >= 0 {
			used[s.srcIdx] = true
		}
	}
	var dropped []string
	for i := 0; i < c.from.NumFields(); i++ {
		if !used[i] {
			dropped = append(dropped, c.from.Field(i).Name)
		}
	}
	return dropped
}

// Defaulted returns the names of target fields the plan fills rather than
// copies.
func (c *Converter) Defaulted() []string {
	var names []string
	for _, s := range c.steps {
		if s.mode == convFill {
			names = append(names, c.to.Field(s.dstIdx).Name)
		}
	}
	return names
}

// Convert produces a new record of the target format from rec, which must
// have the plan's source format.
func (c *Converter) Convert(rec *pbio.Record) (*pbio.Record, error) {
	if !rec.Format().SameStructure(c.from) {
		return nil, fmt.Errorf("core: converter expects format %q (%016x), got %q (%016x)",
			c.from.Name(), c.from.Fingerprint(), rec.Format().Name(), rec.Format().Fingerprint())
	}
	out := pbio.NewRecord(c.to)
	if err := c.convert(rec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// convert fills out, a zero record of the target format, from rec.
func (c *Converter) convert(rec, out *pbio.Record) error {
	for _, s := range c.steps {
		switch s.mode {
		case convFill:
			if !s.fill.IsZero() {
				if err := out.SetIndex(s.dstIdx, s.fill); err != nil {
					return err
				}
			}
		case convCopy:
			if err := out.SetIndex(s.dstIdx, rec.GetIndex(s.srcIdx)); err != nil {
				return err
			}
		case convComplex:
			// out's zero nested record is converted into in place.
			if err := s.sub.convert(rec.GetIndex(s.srcIdx).Record(), out.GetIndex(s.dstIdx).Record()); err != nil {
				return err
			}
		case convList:
			src := rec.GetIndex(s.srcIdx).List()
			elems := make([]pbio.Value, len(src))
			copy(elems, src)
			if err := out.SetIndex(s.dstIdx, pbio.ListOf(elems)); err != nil {
				return err
			}
		case convListComplex:
			// The element records share one exact-size slab.
			src := rec.GetIndex(s.srcIdx).List()
			var slab pbio.Slab
			slab.Reserve(s.sub.to, len(src))
			elems := make([]pbio.Value, len(src))
			for i, e := range src {
				sub := slab.NewRecord(s.sub.to)
				if err := s.sub.convert(e.Record(), sub); err != nil {
					return err
				}
				elems[i] = pbio.RecordOf(sub)
			}
			if err := out.SetIndex(s.dstIdx, pbio.ListOf(elems)); err != nil {
				return err
			}
		}
	}
	return nil
}

// decodePlan folds the conversion into decoding: the pbio.Plan through
// which a payload of the source format decodes straight into the record
// Convert would build from it. The fills are Convert's: a move plan's
// unnamed fields keep NewRecord's zero values, a name-wise plan's take
// their declared defaults. It fails when one source field feeds two target
// fields (a move plan may copy a field twice), which one decoded value
// cannot; such a plan converts after a plain decode.
func (c *Converter) decodePlan() (*pbio.Plan, error) {
	fields := make([]pbio.PlanField, c.from.NumFields())
	for i := range fields {
		fields[i].Slot = pbio.Skip
	}
	fill := make([]pbio.Value, c.to.NumFields())
	for _, s := range c.steps {
		if s.mode == convFill {
			fill[s.dstIdx] = s.fill
			continue
		}
		pf := &fields[s.srcIdx]
		if pf.Slot != pbio.Skip {
			return nil, fmt.Errorf("core: plan %q→%q reads field %q twice",
				c.from.Name(), c.to.Name(), c.from.Field(s.srcIdx).Name)
		}
		pf.Slot = s.dstIdx
		if s.sub != nil {
			sub, err := s.sub.decodePlan()
			if err != nil {
				return nil, err
			}
			pf.Sub = sub
		}
	}
	return pbio.NewPlan(c.from, c.to, fields, fill)
}

// ConvertByName is a one-shot NewConverter + Convert for callers that do not
// reuse the plan.
func ConvertByName(rec *pbio.Record, to *pbio.Format) (*pbio.Record, error) {
	return NewConverter(rec.Format(), to).Convert(rec)
}
