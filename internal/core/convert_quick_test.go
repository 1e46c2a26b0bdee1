package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ecode"
	"repro/internal/pbio"
)

// randomFormat builds a pseudo-random format from a deterministic seed:
// a handful of fields drawn from a shared name pool (so pairs overlap),
// with nesting and lists up to depth 2.
func randomFormat(rng *rand.Rand, depth int) *pbio.Format {
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	n := 1 + rng.Intn(len(names)-1)
	fields := make([]pbio.Field, 0, n)
	for i := 0; i < n; i++ {
		fields = append(fields, randomField(rng, names[i], depth))
	}
	f, err := pbio.NewFormat("quick", fields)
	if err != nil {
		panic(err) // generator bug, not a property failure
	}
	return f
}

func randomField(rng *rand.Rand, name string, depth int) pbio.Field {
	kinds := []pbio.Kind{pbio.Integer, pbio.Unsigned, pbio.Float, pbio.String, pbio.Boolean, pbio.Char, pbio.Enum}
	if depth > 0 {
		kinds = append(kinds, pbio.Complex, pbio.List)
	}
	k := kinds[rng.Intn(len(kinds))]
	switch k {
	case pbio.Complex:
		return pbio.Field{Name: name, Kind: pbio.Complex, Sub: randomFormat(rng, depth-1)}
	case pbio.List:
		elemKinds := []pbio.Kind{pbio.Integer, pbio.Float, pbio.String}
		ek := elemKinds[rng.Intn(len(elemKinds))]
		if depth > 1 && rng.Intn(2) == 0 {
			return pbio.Field{Name: name, Kind: pbio.List,
				Elem: &pbio.Field{Kind: pbio.Complex, Sub: randomFormat(rng, depth-2)}}
		}
		return pbio.Field{Name: name, Kind: pbio.List, Elem: &pbio.Field{Kind: ek}}
	case pbio.Integer, pbio.Unsigned, pbio.Enum:
		sizes := []int{1, 2, 4, 8}
		return pbio.Field{Name: name, Kind: k, Size: sizes[rng.Intn(len(sizes))]}
	case pbio.Float:
		sizes := []int{4, 8}
		return pbio.Field{Name: name, Kind: k, Size: sizes[rng.Intn(len(sizes))]}
	default:
		return pbio.Field{Name: name, Kind: k}
	}
}

func randomRecordOf(rng *rand.Rand, f *pbio.Format) *pbio.Record {
	r := pbio.NewRecord(f)
	for i := 0; i < f.NumFields(); i++ {
		fld := f.Field(i)
		if err := r.SetIndex(i, randomValueOf(rng, fld)); err != nil {
			panic(err)
		}
	}
	return r
}

func randomValueOf(rng *rand.Rand, fld *pbio.Field) pbio.Value {
	switch fld.Kind {
	case pbio.Integer:
		return pbio.Int(int64(int8(rng.Uint64())))
	case pbio.Unsigned:
		return pbio.Uint(uint64(uint8(rng.Uint64())))
	case pbio.Enum:
		return pbio.EnumOf(int64(rng.Intn(4)))
	case pbio.Char:
		return pbio.CharOf(byte('a' + rng.Intn(26)))
	case pbio.Float:
		return pbio.Float64(float64(rng.Intn(1000)) / 4)
	case pbio.String:
		return pbio.Str(string(rune('A' + rng.Intn(26))))
	case pbio.Boolean:
		return pbio.Bool(rng.Intn(2) == 1)
	case pbio.Complex:
		return pbio.RecordOf(randomRecordOf(rng, fld.Sub))
	case pbio.List:
		n := rng.Intn(3)
		elems := make([]pbio.Value, n)
		for i := range elems {
			elems[i] = randomValueOf(rng, fld.Elem)
		}
		return pbio.ListOf(elems)
	default:
		return pbio.Value{}
	}
}

// TestQuickConverterTotal: for ANY pair of formats, the name-wise converter
// must succeed on any well-formed input record and produce a record of the
// target format that itself encodes and decodes cleanly. This is the
// invariant Algorithm 2's fill/drop step relies on: once MaxMatch accepts a
// pair, conversion cannot fail at message time. Seeds that once failed run
// by name before the random ones.
func TestQuickConverterTotal(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		from := randomFormat(rng, 2)
		to := randomFormat(rng, 2)
		conv := NewConverter(from, to)
		rec := randomRecordOf(rng, from)

		out, err := conv.Convert(rec)
		if err != nil {
			t.Logf("seed %d: convert failed: %v\nfrom:\n%s\nto:\n%s", seed, err, from, to)
			return false
		}
		if !out.Format().SameStructure(to) {
			t.Logf("seed %d: output format mismatch", seed)
			return false
		}
		// The converted record must be a valid instance of `to`.
		back, err := pbio.DecodeRecord(pbio.EncodeRecord(out), to)
		if err != nil {
			t.Logf("seed %d: converted record does not round-trip: %v", seed, err)
			return false
		}
		return back.Equal(out)
	}
	for _, seed := range []int64{4916193831908799512} {
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			if !prop(seed) {
				t.Fail()
			}
		})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOnePairing: Algorithm 1, the diff report, the conversion plan,
// the splice compiler and a unit-weighted matcher all answer one question —
// which same-named fields of two formats correspond — and must give the
// same answer for any pair, whether drawn from randomFormat or, so that the
// splice clause is never vacuous, from randomFixedFormat.
func TestQuickOnePairing(t *testing.T) {
	unit := func(string, *pbio.Field) float64 { return 1 }
	check := func(seed int64, f1, f2, f3 *pbio.Format, th Thresholds) bool {
		fail := func(what string) bool {
			t.Logf("seed %d: %s\nf1:\n%s\nf2:\n%s\nreport:\n%s", seed, what, f1, f2, FormatChanges(DiffReport(f1, f2)))
			return false
		}
		var dropped, defaulted []string // top-level removed+retyped, added+retyped
		var lossy12, lossy21, resized bool
		for _, c := range DiffReport(f1, f2) {
			top := !strings.Contains(c.Path, ".")
			switch c.Kind {
			case FieldRemoved, FieldRetyped:
				lossy12 = true
				if top {
					dropped = append(dropped, c.Path)
				}
			case FieldResized:
				resized = true
			}
			switch c.Kind {
			case FieldAdded, FieldRetyped:
				lossy21 = true
				if top {
					defaulted = append(defaulted, c.Path)
				}
			}
		}
		if (Diff(f1, f2) == 0) == lossy12 {
			return fail(fmt.Sprintf("Diff(f1, f2) = %d, report lossy = %v", Diff(f1, f2), lossy12))
		}
		if (Diff(f2, f1) == 0) == lossy21 {
			return fail(fmt.Sprintf("Diff(f2, f1) = %d, report lossy = %v", Diff(f2, f1), lossy21))
		}
		conv := NewConverter(f1, f2)
		if !sameNames(conv.Dropped(), dropped) || !sameNames(conv.Defaulted(), defaulted) {
			return fail(fmt.Sprintf("plan drops %v and defaults %v, report says %v and %v",
				conv.Dropped(), conv.Defaulted(), dropped, defaulted))
		}
		if f1.Layout().Fixed() && f2.Layout().Fixed() {
			if _, ok := compileSplice(conv); ok == resized {
				return fail(fmt.Sprintf("splice compiled = %v with resized = %v", ok, resized))
			}
		}
		// The same registrations decide identically with unit weights.
		var ex [2]Explanation
		for i := range ex {
			m := NewMorpher(th)
			if i == 1 {
				m.SetWeigher(unit)
			}
			for _, f := range []*pbio.Format{f2, f3} {
				if err := m.RegisterFormat(f, func(*pbio.Record) error { return nil }); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if ex[i], err = m.Explain(f1); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(ex[0], ex[1]) {
			return fail(fmt.Sprintf("unit weigher decided %+v, no weigher %+v", ex[1], ex[0]))
		}
		return true
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		th := Thresholds{Diff: rng.Intn(4), Mismatch: float64(rng.Intn(5)) / 4}
		return check(seed, randomFormat(rng, 2), randomFormat(rng, 2), randomFormat(rng, 2), th) &&
			check(seed, randomFixedFormat(rng, 2), randomFixedFormat(rng, 2), randomFixedFormat(rng, 2), th)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// sameNames reports whether a and b hold the same names, in any order.
func sameNames(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return reflect.DeepEqual(a, b) || len(a)+len(b) == 0
}

// TestQuickDiffTriangle sanity-checks metric behaviour over random formats:
// Diff(f, f) = 0, Diff is non-negative, and a perfect pair always converts
// without loss of any field value that both sides share.
func TestQuickDiffProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f1 := randomFormat(rng, 2)
		f2 := randomFormat(rng, 2)
		if Diff(f1, f1) != 0 || Diff(f2, f2) != 0 {
			return false
		}
		if Diff(f1, f2) < 0 || Diff(f2, f1) < 0 {
			return false
		}
		if MismatchRatio(f1, f2) < 0 || MismatchRatio(f1, f2) > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecodeThroughPlanMatchesRecordLane: for any pair of formats,
// decoding a payload through a conversion plan (Converter.decodePlan) must
// build exactly the record Convert builds from the plain decode — for the
// name-wise plan and for a random move plan, whose unnamed fields keep
// NewRecord's zero values — and a truncated or bit-flipped payload must fail
// through the plan, and through the plan that skips every field, exactly
// when the plain decode fails.
func TestQuickDecodeThroughPlanMatchesRecordLane(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		from, to := randomFormat(rng, 2), randomFormat(rng, 2)
		payload := pbio.AppendPayload(nil, randomRecordOf(rng, from))
		skipAll, err := pbio.NewPlan(from, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, conv := range []*Converter{NewConverter(from, to), randomMovePlan(rng, from, to)} {
			plan, err := conv.decodePlan()
			if err != nil {
				if conv.readsTwice() {
					continue
				}
				t.Logf("seed %d: no plan: %v\nfrom:\n%s\nto:\n%s", seed, err, from, to)
				return false
			}
			inputs := [][]byte{payload}
			for range 8 {
				bad := bytes.Clone(payload)
				if len(bad) > 0 && rng.Intn(2) == 0 {
					bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
				} else {
					bad = bad[:rng.Intn(len(bad)+1)]
				}
				inputs = append(inputs, bad)
			}
			for _, in := range inputs {
				rec, errPlain := pbio.DecodePayload(in, from)
				got, errPlan := plan.Decode(in)
				_, errSkip := skipAll.Decode(in)
				if (errPlain == nil) != (errPlan == nil) || (errPlain == nil) != (errSkip == nil) {
					t.Logf("seed %d: payload %x: plain decode error %v, planned %v, skipping %v\nfrom:\n%s\nto:\n%s",
						seed, in, errPlain, errPlan, errSkip, from, to)
					return false
				}
				if errPlain != nil {
					continue
				}
				want, err := conv.Convert(rec)
				if err != nil {
					t.Fatalf("seed %d: convert: %v", seed, err)
				}
				if !got.Equal(want) || !bytes.Equal(pbio.AppendPayload(nil, got), pbio.AppendPayload(nil, want)) {
					t.Logf("seed %d: planned decode %v, Convert %v\nfrom:\n%s\nto:\n%s", seed, got, want, from, to)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// randomMovePlan is a move plan from → to of the kind an Ecode field map
// lowers to: some basic fields of to copied from compatible basic fields
// of from (a source may feed two targets), some filled with a literal, the
// rest left to NewRecord's zero values.
func randomMovePlan(rng *rand.Rand, from, to *pbio.Format) *Converter {
	var moves []ecode.FieldMove
	for j := 0; j < to.NumFields(); j++ {
		dst := to.Field(j)
		if !dst.Kind.IsBasic() {
			continue
		}
		var srcs []int
		for i := 0; i < from.NumFields(); i++ {
			if src := from.Field(i); src.Kind.IsBasic() && fitOf(src, dst) != fitNone {
				srcs = append(srcs, i)
			}
		}
		switch k := rng.Intn(4); {
		case k == 0:
		case k == 1 || len(srcs) == 0:
			moves = append(moves, ecode.FieldMove{Dst: j, Src: -1, Const: randomValueOf(rng, dst)})
		default:
			moves = append(moves, ecode.FieldMove{Dst: j, Src: srcs[rng.Intn(len(srcs))]})
		}
	}
	return newMovePlan(from, to, moves)
}

// readsTwice reports whether two of the plan's steps copy one source field.
func (c *Converter) readsTwice() bool {
	seen := make(map[int]bool)
	for _, s := range c.steps {
		if s.mode != convFill {
			if seen[s.srcIdx] {
				return true
			}
			seen[s.srcIdx] = true
		}
	}
	return false
}
