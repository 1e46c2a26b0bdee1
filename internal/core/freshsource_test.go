package core

import (
	"errors"
	"testing"

	"repro/internal/pbio"
)

// freshPair builds two same-named formats one transform apart, for tests of
// the out-of-band transform sources.
func freshPair(t *testing.T) (wide, narrow *pbio.Format, x *Xform) {
	t.Helper()
	wide = fmtOrDie(t, "ev", []pbio.Field{bf("a", pbio.Integer), bf("b", pbio.Integer)})
	narrow = fmtOrDie(t, "ev", []pbio.Field{bf("a", pbio.Integer)})
	return wide, narrow, &Xform{From: wide, To: narrow, Code: "old.a = new.a;"}
}

// sourceCall is one consultation of a test TransformSource.
type sourceCall struct {
	fp    uint64
	fresh bool
}

// TestTransformSourceFreshOnlyWhenUnroutable: the cold path asks the source
// (fp, false) first — a registry client's cached read — and (fp, true) only
// when that left the format unroutable: the stale-LRU case of a structurally
// reused fingerprint gets its chance before the reject is cached, and a
// cached answer that already routes costs no second round-trip. Whatever is
// decided is then cached: a second message consults nothing.
func TestTransformSourceFreshOnlyWhenUnroutable(t *testing.T) {
	wide, narrow, x := freshPair(t)
	fp := wide.Fingerprint()
	for _, tc := range []struct {
		name          string
		cached, fresh []*Xform
		wantCalls     []sourceCall
		wantReject    bool
	}{
		{"cached read routes", []*Xform{x}, nil, []sourceCall{{fp, false}}, false},
		{"only the fresh read routes", nil, []*Xform{x}, []sourceCall{{fp, false}, {fp, true}}, false},
		{"neither routes", nil, nil, []sourceCall{{fp, false}, {fp, true}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls []sourceCall
			m := NewMorpher(Thresholds{}, WithTransformSource(func(fp uint64, fresh bool) []*Xform {
				calls = append(calls, sourceCall{fp, fresh})
				if fresh {
					return tc.fresh
				}
				return tc.cached
			}))
			var got int
			if err := m.RegisterFormat(narrow, func(r *pbio.Record) error { got++; return nil }); err != nil {
				t.Fatal(err)
			}
			rec := pbio.NewRecord(wide).MustSet("a", pbio.Int(7)).MustSet("b", pbio.Int(8))
			for i := 0; i < 2; i++ {
				err := m.Deliver(rec)
				if tc.wantReject != errors.Is(err, ErrRejected) || (!tc.wantReject && err != nil) {
					t.Fatalf("delivery %d: err = %v, want reject=%v", i, err, tc.wantReject)
				}
			}
			if !tc.wantReject && got != 2 {
				t.Fatalf("handler ran %d times, want 2", got)
			}
			if len(calls) != len(tc.wantCalls) {
				t.Fatalf("source calls = %+v, want %+v (once per cold decision)", calls, tc.wantCalls)
			}
			for i := range calls {
				if calls[i] != tc.wantCalls[i] {
					t.Fatalf("source calls = %+v, want %+v", calls, tc.wantCalls)
				}
			}
		})
	}
}

// TestRejectReachesDefaultHandlerOnEveryEntryPoint: Deliver and
// DeliverEncoded share one decide-or-reject prologue, so an unroutable
// message has one fate whichever way it came in — the default handler sees
// the record in its incoming format and its error is the delivery's outcome;
// without a default handler both return ErrRejected; and the counters move
// identically.
func TestRejectReachesDefaultHandlerOnEveryEntryPoint(t *testing.T) {
	known := fmtOrDie(t, "known", []pbio.Field{bf("a", pbio.Integer)})
	stray := fmtOrDie(t, "stray", []pbio.Field{bf("z", pbio.Integer)})
	rec := pbio.NewRecord(stray).MustSet("z", pbio.Int(9))
	data := pbio.EncodeRecord(rec)
	handlerErr := errors.New("default handler says no")

	for _, entry := range []struct {
		name    string
		deliver func(m *Morpher) error
	}{
		{"Deliver", func(m *Morpher) error { return m.Deliver(rec) }},
		{"DeliverEncoded", func(m *Morpher) error { return m.DeliverEncoded(data, stray) }},
	} {
		for _, tc := range []struct {
			name    string
			dh      Handler
			wantErr error
		}{
			{"no default handler", nil, ErrRejected},
			{"default handler accepts", func(*pbio.Record) error { return nil }, nil},
			{"default handler fails", func(*pbio.Record) error { return handlerErr }, handlerErr},
		} {
			t.Run(entry.name+"/"+tc.name, func(t *testing.T) {
				m := NewMorpher(Thresholds{})
				if err := m.RegisterFormat(known, func(*pbio.Record) error {
					t.Error("registered handler ran for an unroutable message")
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				var seen []*pbio.Record
				if tc.dh != nil {
					m.SetDefaultHandler(func(r *pbio.Record) error {
						seen = append(seen, r)
						return tc.dh(r)
					})
				}
				for i := 0; i < 2; i++ { // cold, then cached reject
					if err := entry.deliver(m); !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
						t.Fatalf("delivery %d: err = %v, want %v", i, err, tc.wantErr)
					}
				}
				if tc.dh != nil {
					if len(seen) != 2 {
						t.Fatalf("default handler ran %d times, want 2", len(seen))
					}
					for _, r := range seen {
						if v, ok := r.Get("z"); r.Format().Fingerprint() != stray.Fingerprint() || !ok || v.Int64() != 9 {
							t.Fatalf("default handler saw %q z=%v, want the incoming record", r.Format().Name(), v)
						}
					}
				}
				want := Stats{Delivered: 2, Rejected: 2, CacheHits: 1}
				if st := m.Stats(); st != want {
					t.Fatalf("stats = %+v, want %+v", st, want)
				}
			})
		}
	}
}

// TestInvalidateHealsCachedReject: a reject decision is cached permanently —
// no later message re-runs the cold path on its own — so a transform that
// arrives after the reject (a registry watch event) must be able to heal it
// via Invalidate. Without the call the reject must keep sticking: that it
// does is exactly what makes the invalidation hook load-bearing.
func TestInvalidateHealsCachedReject(t *testing.T) {
	wide, narrow, x := freshPair(t)
	var route []*Xform
	var consults int // cold decisions that reached the source (each asks cached, then fresh)
	m := NewMorpher(Thresholds{},
		WithTransformSource(func(fp uint64, fresh bool) []*Xform {
			if !fresh {
				consults++
			}
			return route
		}),
	)
	if err := m.RegisterFormat(narrow, func(r *pbio.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	rec := pbio.NewRecord(wide).MustSet("a", pbio.Int(1)).MustSet("b", pbio.Int(2))
	if err := m.Deliver(rec); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	// The metadata lands (too late), but the cached reject keeps winning.
	route = []*Xform{x}
	if err := m.Deliver(rec); !errors.Is(err, ErrRejected) {
		t.Fatalf("second delivery: err = %v, want the cached ErrRejected", err)
	}
	if consults != 1 {
		t.Fatalf("source consulted %d times before invalidation, want 1 (reject cached)", consults)
	}
	m.Invalidate(wide.Fingerprint())
	if err := m.Deliver(rec); err != nil {
		t.Fatalf("delivery after Invalidate: %v", err)
	}
	if consults != 2 {
		t.Fatalf("source consulted %d times after invalidation, want 2", consults)
	}
}
