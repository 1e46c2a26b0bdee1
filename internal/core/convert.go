package core

import (
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
// The plan is a pbio.Plan, the one conversion IR: building it costs one
// walk over both formats, and its executors — Convert over records,
// Decode inside the decoder — then interpret precomputed entries, the same
// compile-once structure PBIO gets from generated code; the splice
// compiler lowers it to byte runs. A transform step that only moves fields
// runs as a plan too, built from its Ecode field map by newMovePlan instead
// of from the name-wise walk.
type Converter struct {
	from, to *pbio.Format
	*pbio.Plan
}

// NewConverter builds the conversion plan from → to: one entry per field
// of to, in to's order, read off the name-wise pairing of the two formats
// (pair.go).
func NewConverter(from, to *pbio.Format) *Converter {
	p := pairing{plan: true}
	return &Converter{from: from, to: to, Plan: p.walk(from, to)}
}

// newMovePlan builds the conversion plan from → to that an Ecode field map
// describes (ecode.Program.FieldMap): each move copies a source field, by
// index rather than by name, or fills a constant, and each list move
// builds a list through its loop, from an element plan of its own moves. A
// target field the map never names keeps the zero value pbio.NewRecord
// gives it, not its declared default, as it would after the program ran.
func newMovePlan(from, to *pbio.Format, moves []ecode.FieldMove) (*pbio.Plan, error) {
	fields := make([]pbio.PlanField, to.NumFields())
	for j := range fields {
		fields[j].Src = pbio.NoSource
	}
	for _, mv := range moves {
		pf := pbio.PlanField{Src: mv.Src, Fill: mv.Const, Each: mv.Each}
		if mv.Each != nil {
			sub, err := newMovePlan(from.Field(mv.Src).Elem.Sub, to.Field(mv.Dst).Elem.Sub, mv.Elem)
			if err != nil {
				return nil, err
			}
			pf.Sub = sub
		}
		fields[mv.Dst] = pf
	}
	return pbio.NewPlan(from, to, fields)
}

// Dropped returns the names of source fields the plan discards (present in
// the source format, absent or incompatible in the target). Useful for
// diagnostics.
func (c *Converter) Dropped() []string {
	read := make([]bool, c.from.NumFields())
	for j := 0; j < c.to.NumFields(); j++ {
		if src := c.Field(j).Src; src != pbio.NoSource {
			read[src] = true
		}
	}
	var dropped []string
	for i, r := range read {
		if !r {
			dropped = append(dropped, c.from.Field(i).Name)
		}
	}
	return dropped
}

// Defaulted returns the names of target fields the plan fills rather than
// copies.
func (c *Converter) Defaulted() []string {
	var names []string
	for j := 0; j < c.to.NumFields(); j++ {
		if c.Field(j).Src == pbio.NoSource {
			names = append(names, c.to.Field(j).Name)
		}
	}
	return names
}

// ConvertByName is a one-shot NewConverter + Convert for callers that do not
// reuse the plan.
func ConvertByName(rec *pbio.Record, to *pbio.Format) (*pbio.Record, error) {
	return NewConverter(rec.Format(), to).Convert(rec)
}
