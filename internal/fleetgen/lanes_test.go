package fleetgen

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/ecode"
	"repro/internal/pbio"
)

// TestLanesAgree is the lane oracle over generated schema evolution. For
// every ordered pair of generations of seeded lineages that a name-wise
// conversion can bridge — each field of the target with a provenance source
// keeps its name there — three lanes must produce byte-identical messages:
// the pair's XformBetween run by Ecode, the record lane (core.Converter)
// and the splice lane (a Morpher delivering encoded bytes to an encoded
// handler). A pair whose shared fields all keep their kind and width must
// take the splice lane. Before any delivery, the Morpher's Explain must
// agree with the generator's provenance: the pair's target, no chain, a
// perfect match exactly for identical structures, and as Dropped and
// Defaulted the fields whose id only one side has.
func TestLanesAgree(t *testing.T) {
	pairs := 0
	for _, seed := range []int64{1, 2, 3} {
		gens := mustLineage(t, seed, 4, 20).Generations()
		for _, from := range gens {
			for _, to := range gens {
				if from != to && namesKept(from, to) {
					checkLanes(t, from, to)
					pairs++
				}
			}
		}
	}
	t.Logf("%d bridgeable pairs", pairs)
	if pairs < 100 {
		t.Fatalf("only %d bridgeable pairs; the lineages no longer exercise the lanes", pairs)
	}
}

// namesKept reports whether every field of to that has a provenance source
// in from carries the same name in both.
func namesKept(from, to *Generation) bool {
	src := make(map[int]string, len(from.fields))
	for _, f := range from.fields {
		src[f.id] = f.name
	}
	for _, f := range to.fields {
		if name, ok := src[f.id]; ok && name != f.name {
			return false
		}
	}
	return true
}

// unmatched returns, sorted, the names of a's fields whose provenance id
// has no field in b.
func unmatched(a, b *Generation) []string {
	ids := make(map[int]bool, len(b.fields))
	for _, f := range b.fields {
		ids[f.id] = true
	}
	var names []string
	for _, f := range a.fields {
		if !ids[f.id] {
			names = append(names, f.name)
		}
	}
	slices.Sort(names)
	return names
}

// shapesKept reports whether every field shared by from and to keeps its
// kind and width, so that converting between them only copies and fills.
func shapesKept(from, to *Generation) bool {
	src := make(map[int]field, len(from.fields))
	for _, f := range from.fields {
		src[f.id] = f
	}
	for _, f := range to.fields {
		if s, ok := src[f.id]; ok && (s.kind != f.kind || s.size != f.size) {
			return false
		}
	}
	return true
}

func checkLanes(t *testing.T, from, to *Generation) {
	t.Helper()
	x, err := XformBetween(from, to)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ecode.Compile(x.Code,
		ecode.Param{Name: core.SrcParam, Format: from.Format},
		ecode.Param{Name: core.DstParam, Format: to.Format})
	if err != nil {
		t.Fatal(err)
	}
	conv := core.NewConverter(from.Format, to.Format)
	m := core.NewMorpher(core.Thresholds{Diff: math.MaxInt32, Mismatch: 1})
	var spliced []byte
	if err := m.RegisterFormatEncoded(to.Format, func(data []byte, _ *pbio.Format) error {
		spliced = append(spliced[:0], data...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	e, err := m.Explain(from.Format)
	if err != nil {
		t.Fatalf("gen%d→gen%d: Explain: %v", from.Index, to.Index, err)
	}
	slices.Sort(e.Dropped)
	slices.Sort(e.Defaulted)
	if e.Rejected || e.ChainLen != 0 || e.Target != to.Format ||
		e.Perfect != from.Format.SameStructure(to.Format) ||
		!slices.Equal(e.Dropped, unmatched(from, to)) || !slices.Equal(e.Defaulted, unmatched(to, from)) {
		t.Fatalf("gen%d→gen%d: Explain = %+v, want target %q, no chain, perfect=%v, dropped %v, defaulted %v",
			from.Index, to.Index, e, to.Format.Name(), from.Format.SameStructure(to.Format),
			unmatched(from, to), unmatched(to, from))
	}

	for _, seq := range []uint64{0, 1, 977, 1 << 40} {
		in := from.NewRecord(seq)
		out := pbio.NewRecord(to.Format)
		if _, err := prog.Run(in, out); err != nil {
			t.Fatalf("gen%d→gen%d seq %d: Ecode: %v", from.Index, to.Index, seq, err)
		}
		viaEcode := pbio.EncodeRecord(out)
		rec, err := conv.Convert(in)
		if err != nil {
			t.Fatalf("gen%d→gen%d seq %d: record lane: %v", from.Index, to.Index, seq, err)
		}
		viaRecord := pbio.EncodeRecord(rec)
		hits := m.Stats().SpliceHits
		spliced = nil
		if err := m.DeliverEncoded(pbio.EncodeRecord(in), from.Format); err != nil {
			t.Fatalf("gen%d→gen%d seq %d: splice lane: %v", from.Index, to.Index, seq, err)
		}
		if !bytes.Equal(viaEcode, viaRecord) || !bytes.Equal(viaEcode, spliced) {
			t.Fatalf("gen%d→gen%d seq %d: lanes disagree\n ecode:  %x\n record: %x\n splice: %x\n code: %s",
				from.Index, to.Index, seq, viaEcode, viaRecord, spliced, x.Code)
		}
		if shapesKept(from, to) && m.Stats().SpliceHits == hits {
			t.Fatalf("gen%d→gen%d: no retype between them, but the delivery missed the splice lane", from.Index, to.Index)
		}
	}
}
