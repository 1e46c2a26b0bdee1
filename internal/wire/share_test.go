package wire

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fleetgen"
	"repro/internal/pbio"
)

// shareLineage returns a fleetgen lineage's generations 0..3 and a variant
// of generation 0 with the same fingerprint but a different body (a default
// value), which interning may never hand out in place of generation 0.
func shareLineage(t *testing.T) ([]*fleetgen.Generation, *pbio.Format) {
	t.Helper()
	l, err := fleetgen.NewLineage("wire.share", 1, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Evolve(); err != nil {
			t.Fatal(err)
		}
	}
	gens := l.Generations()
	fields := gens[0].Format.Fields()
	fields[0].Default = pbio.Int(1)
	variant, err := pbio.NewFormat(gens[0].Format.Name(), fields)
	if err != nil {
		t.Fatal(err)
	}
	if !variant.SameStructure(gens[0].Format) || pbio.Identical(variant, gens[0].Format) {
		t.Fatal("variant must share generation 0's fingerprint but not its body")
	}
	return gens, variant
}

func mustXform(t *testing.T, from, to *fleetgen.Generation) *core.Xform {
	t.Helper()
	x, err := fleetgen.XformBetween(from, to)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestParseFormatFrameSharesFrameFormat: a transform whose From or To body
// equals the announced format's comes back pointing at the frame's own
// decoded format; a transform format with another body, even under the
// same fingerprint, is never replaced by it.
func TestParseFormatFrameSharesFrameFormat(t *testing.T) {
	gens, variant := shareLineage(t)
	g0, g3 := gens[0], gens[3]

	out := mustXform(t, g3, g0) // From is the frame's format
	in := mustXform(t, g0, g3)  // To is the frame's format
	f, xforms, err := ParseFormatFrame(AppendFormatFrame(nil, g3.Format, []*core.Xform{out, in}), true)
	if err != nil {
		t.Fatal(err)
	}
	if xforms[0].From != f || xforms[0].To == f {
		t.Errorf("transform out of the frame format: From shared = %v, To shared = %v, want true, false",
			xforms[0].From == f, xforms[0].To == f)
	}
	if xforms[1].To != f || xforms[1].From == f {
		t.Errorf("transform into the frame format: To shared = %v, From shared = %v, want true, false",
			xforms[1].To == f, xforms[1].From == f)
	}

	// Announce generation 0 with a transform whose From is the same-
	// fingerprint variant: it must decode to the variant, not to the frame's
	// format.
	x := &core.Xform{From: variant, To: g3.Format, Code: out.Code}
	f, xforms, err = ParseFormatFrame(AppendFormatFrame(nil, g0.Format, []*core.Xform{x}), false)
	if err != nil {
		t.Fatal(err)
	}
	if xforms[0].From == f || !pbio.Identical(xforms[0].From, variant) {
		t.Error("a transform From with a different body was replaced by the frame's format")
	}
}

// TestAdoptFormatSharesHeldFormats covers the in-band path with no registry:
// transforms name the formats the connection already holds, and an
// identical re-announcement keeps the held object.
func TestAdoptFormatSharesHeldFormats(t *testing.T) {
	gens, variant := shareLineage(t)
	type announced struct {
		f      *pbio.Format
		xforms []*core.Xform
	}
	var got []announced
	rx := NewConn(&bufferedConn{r: newBufferPipe(), w: newBufferPipe()},
		WithMorpher(core.NewMorpher(core.DefaultThresholds)),
		WithFormatHook(func(f *pbio.Format, xforms []*core.Xform) { got = append(got, announced{f, xforms}) }))
	t.Cleanup(func() { _ = rx.Close() })
	announce := func(f *pbio.Format, xforms ...*core.Xform) announced {
		t.Helper()
		if err := rx.handleFormatFrame(AppendFormatFrame(nil, f, xforms)); err != nil {
			t.Fatal(err)
		}
		return got[len(got)-1]
	}

	g0 := announce(gens[0].Format).f
	for _, g := range gens[1:] {
		a := announce(g.Format, mustXform(t, g, gens[0]))
		if a.xforms[0].From != a.f || a.xforms[0].To != g0 {
			t.Errorf("gen %d: transform From shared = %v, To shared = %v, want both",
				g.Index, a.xforms[0].From == a.f, a.xforms[0].To == g0)
		}
		if rx.recvFormats[g.Format.Fingerprint()] != a.f {
			t.Errorf("gen %d: the hook saw another object than the connection holds", g.Index)
		}
	}
	if again := announce(gens[0].Format); again.f != g0 {
		t.Error("an identical re-announcement replaced the held format")
	}

	// A transform into the same-fingerprint variant keeps its own To.
	a := announce(gens[2].Format, &core.Xform{From: gens[2].Format, To: variant, Code: mustXform(t, gens[2], gens[0]).Code})
	if a.xforms[0].To == g0 || !pbio.Identical(a.xforms[0].To, variant) {
		t.Error("a transform To with a different body was replaced by the held format")
	}
}
