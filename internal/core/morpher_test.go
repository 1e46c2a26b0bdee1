package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/pbio"
)

// figure5 is the paper's v2.0 → v1.0 ChannelOpenResponse transformation.
const figure5 = `
int i, sink_count = 0, src_count = 0;
old.member_count = new.member_count;
for (i = 0; i < new.member_count; i++) {
    old.member_list[i].info = new.member_list[i].info;
    old.member_list[i].ID = new.member_list[i].ID;
    if (new.member_list[i].is_Source) {
        old.src_count = src_count + 1;
        old.src_list[src_count].info = new.member_list[i].info;
        old.src_list[src_count].ID = new.member_list[i].ID;
        src_count++;
    }
    if (new.member_list[i].is_Sink) {
        old.sink_count = sink_count + 1;
        old.sink_list[sink_count].info = new.member_list[i].info;
        old.sink_list[sink_count].ID = new.member_list[i].ID;
        sink_count++;
    }
}
`

func v2Response(t *testing.T, v2 *pbio.Format, n int) *pbio.Record {
	t.Helper()
	member := v2.FieldByName("member_list").Elem.Sub
	elems := make([]pbio.Value, n)
	for i := range elems {
		rec := pbio.NewRecord(member).
			MustSet("info", pbio.Str(fmt.Sprintf("tcp:host%d:%d", i, 4000+i))).
			MustSet("ID", pbio.Int(7)).
			MustSet("is_Source", pbio.Bool(i%2 == 0)).
			MustSet("is_Sink", pbio.Bool(i%2 == 1))
		elems[i] = pbio.RecordOf(rec)
	}
	return pbio.NewRecord(v2).
		MustSet("member_count", pbio.Int(int64(n))).
		MustSet("member_list", pbio.ListOf(elems))
}

func TestMorpherExactDelivery(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer)})
	m := NewMorpher(DefaultThresholds)
	var got *pbio.Record
	if err := m.RegisterFormat(f, func(r *pbio.Record) error { got = r; return nil }); err != nil {
		t.Fatal(err)
	}
	rec := pbio.NewRecord(f).MustSet("x", pbio.Int(5))
	if err := m.Deliver(rec); err != nil {
		t.Fatal(err)
	}
	if got != rec {
		t.Error("exact-format delivery must hand over the record unchanged")
	}
	st := m.Stats()
	if st.Delivered != 1 || st.Transformed != 0 || st.Converted != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestMorpherEvolutionScenario is the paper's §4.1 scenario end to end: an
// old subscriber that only understands ChannelOpenResponse v1.0 receives a
// v2.0 message whose meta-data carries the Figure 5 transformation.
func TestMorpherEvolutionScenario(t *testing.T) {
	v1, v2 := echoV1V2(t)
	m := NewMorpher(DefaultThresholds)

	var delivered *pbio.Record
	if err := m.RegisterFormat(v1, func(r *pbio.Record) error { delivered = r; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransform(&Xform{From: v2, To: v1, Code: figure5}); err != nil {
		t.Fatal(err)
	}

	in := v2Response(t, v2, 4)
	if err := m.Deliver(in); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if delivered == nil {
		t.Fatal("handler not invoked")
	}
	if !delivered.Format().SameStructure(v1) {
		t.Fatalf("delivered format = %q, want v1 structure", delivered.Format().Name())
	}
	if v, _ := delivered.Get("member_count"); v.Int64() != 4 {
		t.Errorf("member_count = %d", v.Int64())
	}
	if v, _ := delivered.Get("src_count"); v.Int64() != 2 {
		t.Errorf("src_count = %d", v.Int64())
	}
	if v, _ := delivered.Get("sink_count"); v.Int64() != 2 {
		t.Errorf("sink_count = %d", v.Int64())
	}
	sl, _ := delivered.Get("src_list")
	if sl.Len() != 2 || sl.List()[0].Record().GetIndex(0).Strval() != "tcp:host0:4000" {
		t.Errorf("src_list = %v", sl)
	}

	st := m.Stats()
	if st.Compiled != 1 || st.Transformed != 1 {
		t.Errorf("stats = %+v, want exactly one compile and one transform", st)
	}
	// Figure 5's loop only moves list elements, so it runs as a plan.
	if ex, err := m.Explain(v2); err != nil || ex.ChainLen != 1 || ex.Lowered != 1 {
		t.Errorf("Explain = %+v, %v; want one step, lowered to a plan", ex, err)
	}
}

func TestMorpherDecisionCaching(t *testing.T) {
	v1, v2 := echoV1V2(t)
	m := NewMorpher(DefaultThresholds)
	count := 0
	if err := m.RegisterFormat(v1, func(*pbio.Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransform(&Xform{From: v2, To: v1, Code: figure5}); err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := m.Deliver(v2Response(t, v2, 2)); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if count != n {
		t.Errorf("handler ran %d times, want %d", count, n)
	}
	if st.Compiled != 1 {
		t.Errorf("Compiled = %d, want 1 (code generated once, then cached)", st.Compiled)
	}
	if st.CacheHits != n-1 {
		t.Errorf("CacheHits = %d, want %d", st.CacheHits, n-1)
	}
	if st.Transformed != n {
		t.Errorf("Transformed = %d, want %d", st.Transformed, n)
	}
}

func TestMorpherRetroChain(t *testing.T) {
	// Figure 1: Rev 2.0 → Rev 1.0 → Rev 0.0 via chained retro-transforms.
	v0 := fmtOrDie(t, "Rev", []pbio.Field{bf("a", pbio.Integer)})
	v1 := fmtOrDie(t, "Rev", []pbio.Field{bf("a", pbio.Integer), bf("b", pbio.Integer)})
	v2 := fmtOrDie(t, "Rev", []pbio.Field{bf("a", pbio.Integer), bf("b", pbio.Integer), bf("c", pbio.Integer)})

	m := NewMorpher(Thresholds{}) // strict: only perfect matches
	var got *pbio.Record
	if err := m.RegisterFormat(v0, func(r *pbio.Record) error { got = r; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransform(&Xform{From: v2, To: v1, Code: "old.a = new.a; old.b = new.b + new.c;"}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransform(&Xform{From: v1, To: v0, Code: "old.a = new.a + new.b;"}); err != nil {
		t.Fatal(err)
	}

	in := pbio.NewRecord(v2).
		MustSet("a", pbio.Int(1)).
		MustSet("b", pbio.Int(2)).
		MustSet("c", pbio.Int(3))
	if err := m.Deliver(in); err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("a"); v.Int64() != 6 {
		t.Errorf("chained result a = %d, want 1+2+3 = 6", v.Int64())
	}
	ex, err := m.Explain(in.Format())
	if err != nil {
		t.Fatal(err)
	}
	if ex.ChainLen != 2 || !ex.Perfect || ex.Target != v0 {
		t.Errorf("Explain = %+v, want 2-step perfect chain to v0", ex)
	}
	if st := m.Stats(); st.Compiled != 2 {
		t.Errorf("Compiled = %d, want 2", st.Compiled)
	}
}

// TestMorpherLowersEachStep: in a chain, a step that only moves fields runs
// as a conversion plan and a step that computes runs on the VM; the chain
// delivers what running both programs would.
func TestMorpherLowersEachStep(t *testing.T) {
	v0 := fmtOrDie(t, "Rev", []pbio.Field{bf("a", pbio.Integer)})
	v1 := fmtOrDie(t, "Rev", []pbio.Field{bf("a", pbio.Integer), bf("b", pbio.Integer)})
	v2 := fmtOrDie(t, "Rev", []pbio.Field{bf("c", pbio.Integer), {Name: "z", Kind: pbio.Float, Size: 8}, bf("a", pbio.Integer)})

	m := NewMorpher(Thresholds{})
	var got *pbio.Record
	if err := m.RegisterFormat(v0, func(r *pbio.Record) error { got = r; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransform(&Xform{From: v2, To: v1, Code: "old.a = new.a; old.b = new.z;"}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransform(&Xform{From: v1, To: v0, Code: "old.a = new.a * 10 + new.b;"}); err != nil {
		t.Fatal(err)
	}
	ex, err := m.Explain(v2)
	if err != nil {
		t.Fatal(err)
	}
	if ex.ChainLen != 2 || ex.Lowered != 1 || !ex.Perfect || ex.Target != v0 {
		t.Fatalf("Explain = %+v, want a perfect 2-step chain to v0 with its first step lowered", ex)
	}
	in := pbio.NewRecord(v2).MustSet("c", pbio.Int(9)).MustSet("z", pbio.Float64(2.75)).MustSet("a", pbio.Int(4))
	if err := m.Deliver(in); err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("a"); v.Int64() != 42 {
		t.Errorf("a = %d, want 4*10 + int(2.75) = 42", v.Int64())
	}
	if st := m.Stats(); st.Compiled != 2 || st.Transformed != 1 {
		t.Errorf("stats = %+v, want two compiles and one transformed message", st)
	}
}

func TestMorpherTransformBeatsLossyIdentity(t *testing.T) {
	// Condition (v): a supplied transform that reaches the target exactly
	// (diff 0) must be preferred over delivering the raw message with a
	// field dropped (diff 1).
	base := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer)})
	extended := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer), bf("opt", pbio.Integer)})

	m := NewMorpher(DefaultThresholds)
	if err := m.RegisterFormat(base, func(*pbio.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransform(&Xform{From: extended, To: base, Code: "old.x = new.x;"}); err != nil {
		t.Fatal(err)
	}
	ex, err := m.Explain(extended)
	if err != nil {
		t.Fatal(err)
	}
	if ex.ChainLen != 1 || !ex.Perfect {
		t.Errorf("Explain = %+v, want a perfect 1-step transform", ex)
	}
}

func TestMorpherIdentityWinsTies(t *testing.T) {
	// Incoming A and transform target B score identically against the
	// registered format T (each drops one field, defaults none). The
	// identity chain is enumerated first and must win, avoiding a useless
	// transformation.
	a := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer), bf("a_only", pbio.Integer)})
	b := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer), bf("b_only", pbio.Integer)})
	target := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer)})

	m := NewMorpher(DefaultThresholds)
	if err := m.RegisterFormat(target, func(*pbio.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransform(&Xform{From: a, To: b, Code: "old.x = new.x; old.b_only = new.a_only;"}); err != nil {
		t.Fatal(err)
	}
	ex, err := m.Explain(a)
	if err != nil {
		t.Fatal(err)
	}
	if ex.ChainLen != 0 {
		t.Errorf("ChainLen = %d, want 0 (identity preferred on exact ties)", ex.ChainLen)
	}
	if len(ex.Dropped) != 1 || ex.Dropped[0] != "a_only" {
		t.Errorf("Dropped = %v", ex.Dropped)
	}
}

// TestMorpherOptionalExtraField reproduces the intro's motivating case: "if
// a message from a new server contains an extra field that provides optional
// information, clients who do not understand or expect that field should
// still be able to operate."
func TestMorpherOptionalExtraField(t *testing.T) {
	oldFmt := fmtOrDie(t, "Quote", []pbio.Field{bf("symbol", pbio.String), bf("price", pbio.Float)})
	newFmt := fmtOrDie(t, "Quote", []pbio.Field{bf("symbol", pbio.String), bf("price", pbio.Float), bf("volume", pbio.Integer)})

	m := NewMorpher(DefaultThresholds)
	var got *pbio.Record
	if err := m.RegisterFormat(oldFmt, func(r *pbio.Record) error { got = r; return nil }); err != nil {
		t.Fatal(err)
	}
	in := pbio.NewRecord(newFmt).
		MustSet("symbol", pbio.Str("ACME")).
		MustSet("price", pbio.Float64(12.5)).
		MustSet("volume", pbio.Int(1000))
	if err := m.Deliver(in); err != nil {
		t.Fatalf("extra optional field must not break the old client: %v", err)
	}
	if v, _ := got.Get("price"); v.Float64() != 12.5 {
		t.Errorf("price = %v", v)
	}
	if _, ok := got.Get("volume"); ok {
		t.Error("volume must have been dropped")
	}
	if st := m.Stats(); st.Converted != 1 || st.Transformed != 0 {
		t.Errorf("stats = %+v (expected pure conversion, no transform)", st)
	}
}

func TestMorpherRejection(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer)})
	unrelated := fmtOrDie(t, "other", []pbio.Field{bf("y", pbio.String)})

	m := NewMorpher(Thresholds{})
	if err := m.RegisterFormat(f, func(*pbio.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	err := m.Deliver(pbio.NewRecord(unrelated))
	if !errors.Is(err, ErrRejected) {
		t.Errorf("err = %v, want ErrRejected", err)
	}
	if err := m.Deliver(pbio.NewRecord(unrelated)); !errors.Is(err, ErrRejected) {
		t.Errorf("cached reject: err = %v, want ErrRejected", err)
	}
	if st := m.Stats(); st.Rejected != 2 {
		t.Errorf("Rejected = %d, want 2", st.Rejected)
	}

	// With a default handler, the original record arrives there instead.
	var fallback *pbio.Record
	m.SetDefaultHandler(func(r *pbio.Record) error { fallback = r; return nil })
	in := pbio.NewRecord(unrelated)
	if err := m.Deliver(in); err != nil {
		t.Fatal(err)
	}
	if fallback != in {
		t.Error("default handler must receive the unmodified record")
	}
	ex, err := m.Explain(unrelated)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Rejected {
		t.Error("Explain must report rejection")
	}
}

func TestMorpherNameScoping(t *testing.T) {
	// Same structure, different format name: must NOT match (the reader's
	// candidate set Fr is scoped to formats with the incoming name).
	a := fmtOrDie(t, "AlphaMsg", []pbio.Field{bf("x", pbio.Integer)})
	b := fmtOrDie(t, "BetaMsg", []pbio.Field{bf("x", pbio.Integer)})
	m := NewMorpher(DefaultThresholds)
	if err := m.RegisterFormat(a, func(*pbio.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.Deliver(pbio.NewRecord(b)); !errors.Is(err, ErrRejected) {
		t.Errorf("cross-name delivery err = %v, want ErrRejected", err)
	}
}

func TestMorpherBadTransform(t *testing.T) {
	v1, v2 := echoV1V2(t)
	m := NewMorpher(DefaultThresholds)
	if err := m.RegisterFormat(v1, func(*pbio.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	bad := &Xform{From: v2, To: v1, Code: "old.no_such_field = 1;"}
	if err := bad.Validate(); err == nil {
		t.Error("Validate must reject code referencing unknown fields")
	}
	if err := m.AddTransform(bad); err != nil {
		t.Fatal(err) // lazily compiled; registration succeeds
	}
	err := m.Deliver(v2Response(t, v2, 1))
	if !errors.Is(err, ErrBadTransform) {
		t.Errorf("err = %v, want ErrBadTransform", err)
	}
}

func TestMorpherRegistrationValidation(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer)})
	m := NewMorpher(DefaultThresholds)
	if err := m.RegisterFormat(nil, func(*pbio.Record) error { return nil }); err == nil {
		t.Error("nil format must be rejected")
	}
	if err := m.RegisterFormat(f, nil); err == nil {
		t.Error("nil handler must be rejected")
	}
	if err := m.AddTransform(nil); err == nil {
		t.Error("nil transform must be rejected")
	}
	if err := m.AddTransform(&Xform{From: f}); err == nil {
		t.Error("transform without To must be rejected")
	}
}

func TestMorpherHandlerReplacement(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer)})
	m := NewMorpher(DefaultThresholds)
	firstCalled, secondCalled := 0, 0
	if err := m.RegisterFormat(f, func(*pbio.Record) error { firstCalled++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterFormat(f, func(*pbio.Record) error { secondCalled++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.Deliver(pbio.NewRecord(f)); err != nil {
		t.Fatal(err)
	}
	if firstCalled != 0 || secondCalled != 1 {
		t.Errorf("re-registration must replace the handler: first=%d second=%d", firstCalled, secondCalled)
	}
}

func TestMorpherCacheInvalidation(t *testing.T) {
	old := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer)})
	incoming := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer), bf("y", pbio.Integer)})
	m := NewMorpher(DefaultThresholds)
	oldHits, newHits := 0, 0
	if err := m.RegisterFormat(old, func(*pbio.Record) error { oldHits++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.Deliver(pbio.NewRecord(incoming)); err != nil {
		t.Fatal(err)
	}
	// Registering the exact incoming format must invalidate the cached
	// lossy decision and win from now on.
	if err := m.RegisterFormat(incoming, func(*pbio.Record) error { newHits++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.Deliver(pbio.NewRecord(incoming)); err != nil {
		t.Fatal(err)
	}
	if oldHits != 1 || newHits != 1 {
		t.Errorf("oldHits=%d newHits=%d, want 1 and 1", oldHits, newHits)
	}
}

func TestMorpherTransformCycleTerminates(t *testing.T) {
	a := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer)})
	b := fmtOrDie(t, "m", []pbio.Field{bf("y", pbio.Integer)})
	target := fmtOrDie(t, "m", []pbio.Field{bf("z", pbio.Integer)})
	m := NewMorpher(Thresholds{})
	if err := m.RegisterFormat(target, func(*pbio.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// a → b → a is a cycle; reachability must terminate and reject.
	if err := m.AddTransform(&Xform{From: a, To: b, Code: "old.y = new.x;"}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransform(&Xform{From: b, To: a, Code: "old.x = new.y;"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Deliver(pbio.NewRecord(a)); !errors.Is(err, ErrRejected) {
		t.Errorf("err = %v, want ErrRejected", err)
	}
}

func TestMorpherConcurrentDelivery(t *testing.T) {
	v1, v2 := echoV1V2(t)
	m := NewMorpher(DefaultThresholds)
	var mu sync.Mutex
	total := 0
	if err := m.RegisterFormat(v1, func(r *pbio.Record) error {
		mu.Lock()
		defer mu.Unlock()
		total++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransform(&Xform{From: v2, To: v1, Code: figure5}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := m.Deliver(v2Response(t, v2, 3)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if total != 200 {
		t.Errorf("delivered %d, want 200", total)
	}
}

func TestXformSerdeRoundtrip(t *testing.T) {
	v1, v2 := echoV1V2(t)
	x := &Xform{From: v2, To: v1, Code: figure5}
	blob := EncodeXform(x)
	got, err := DecodeXform(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.From.Fingerprint() != v2.Fingerprint() || got.To.Fingerprint() != v1.Fingerprint() {
		t.Error("formats lost in transform serde")
	}
	if got.Code != figure5 {
		t.Error("code lost in transform serde")
	}
	if err := got.Validate(); err != nil {
		t.Errorf("reconstructed transform must validate: %v", err)
	}

	for cut := 1; cut < len(blob); cut += 7 {
		if _, err := DecodeXform(blob[:len(blob)-cut]); err == nil {
			t.Fatalf("truncated blob at %d accepted", len(blob)-cut)
		}
	}
	if _, err := DecodeXform(append(append([]byte{}, blob...), 9)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestMorpherDeliverEncoded(t *testing.T) {
	v1, v2 := echoV1V2(t)
	m := NewMorpher(DefaultThresholds)
	var got *pbio.Record
	if err := m.RegisterFormat(v1, func(r *pbio.Record) error { got = r; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransform(&Xform{From: v2, To: v1, Code: figure5}); err != nil {
		t.Fatal(err)
	}
	data := pbio.EncodeRecord(v2Response(t, v2, 2))
	if err := m.DeliverEncoded(data, v2); err != nil {
		t.Fatal(err)
	}
	if got == nil || !got.Format().SameStructure(v1) {
		t.Error("encoded delivery failed")
	}
	if err := m.DeliverEncoded(data[:5], v2); err == nil {
		t.Error("truncated message must error")
	}
}
