package core

import (
	"testing"

	"repro/internal/pbio"
)

// TestWeightedPaths: the Weigher sees every basic field once per match, by
// its dot path — list elements under their list's name — whether the field
// is kept or dropped.
func TestWeightedPaths(t *testing.T) {
	inner := fmtOrDie(t, "inner", []pbio.Field{bf("deep", pbio.Integer)})
	f := fmtOrDie(t, "m", []pbio.Field{
		bf("top", pbio.Integer),
		{Name: "sub", Kind: pbio.Complex, Sub: inner},
		{Name: "list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: inner}},
	})
	topOnly := fmtOrDie(t, "m", []pbio.Field{bf("top", pbio.Integer)})
	for _, to := range []*pbio.Format{f, topOnly} {
		var paths []string
		MaxMatch([]*pbio.Format{f}, []*pbio.Format{to}, DefaultThresholds, func(path string, _ *pbio.Field) float64 {
			paths = append(paths, path)
			return 1
		})
		want := map[string]bool{"top": true, "sub.deep": true, "list.deep": true}
		if len(paths) != len(want) {
			t.Fatalf("into %d fields: paths = %v", to.NumFields(), paths)
		}
		for _, p := range paths {
			if !want[p] {
				t.Errorf("into %d fields: unexpected path %q", to.NumFields(), p)
			}
		}
	}
}

// TestWeightedImportanceFlipsDecision: a heavily weighted critical field
// vetoes a match that unweighted counting would accept, and zero weights
// make optional fields free to drop.
func TestWeightedImportanceFlipsDecision(t *testing.T) {
	incoming := fmtOrDie(t, "m", []pbio.Field{
		bf("checksum", pbio.String),
		bf("note1", pbio.String),
		bf("note2", pbio.String),
	})
	target := fmtOrDie(t, "m", []pbio.Field{
		bf("note1", pbio.String),
		bf("note2", pbio.String),
	})

	// Unweighted: diff = 1 (checksum dropped), easily within thresholds.
	if _, ok := MaxMatch([]*pbio.Format{incoming}, []*pbio.Format{target}, DefaultThresholds, nil); !ok {
		t.Fatal("unweighted match must succeed")
	}

	// Weighted: dropping the checksum is intolerable.
	weigher := func(path string, _ *pbio.Field) float64 {
		if path == "checksum" {
			return 100
		}
		return 1
	}
	if _, ok := MaxMatch([]*pbio.Format{incoming}, []*pbio.Format{target}, DefaultThresholds, weigher); ok {
		t.Error("weighted match must refuse to drop the critical field")
	}

	// Zero-weight fields are fully optional: even a tiny Diff budget admits
	// dropping them.
	optional := func(path string, _ *pbio.Field) float64 {
		if path == "checksum" {
			return 0
		}
		return 1
	}
	m, ok := MaxMatch([]*pbio.Format{incoming}, []*pbio.Format{target}, Thresholds{}, optional)
	if !ok || !m.IsPerfect() {
		t.Errorf("zero-weighted drop must be a perfect match: ok=%v m=%+v", ok, m)
	}
}

func TestWeightedTieBreakPrefersLeastMismatch(t *testing.T) {
	target := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer), bf("y", pbio.Integer)})
	full := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer), bf("y", pbio.Integer), bf("e", pbio.Integer)})
	partial := fmtOrDie(t, "m", []pbio.Field{bf("x", pbio.Integer), bf("e", pbio.Integer)})

	heavyY := func(path string, _ *pbio.Field) float64 {
		if path == "y" {
			return 3
		}
		return 1
	}
	m, ok := MaxMatch([]*pbio.Format{partial, full}, []*pbio.Format{target}, Thresholds{Diff: 5, Mismatch: 1}, heavyY)
	if !ok || m.From != full {
		t.Errorf("least weighted mismatch must win: got %+v", m)
	}
}

func TestMorpherWithWeigher(t *testing.T) {
	oldFmt := fmtOrDie(t, "Quote", []pbio.Field{bf("symbol", pbio.String), bf("price", pbio.Float)})
	newFmt := fmtOrDie(t, "Quote", []pbio.Field{bf("symbol", pbio.String), bf("price", pbio.Float), bf("audit", pbio.String)})

	m := NewMorpher(DefaultThresholds)
	delivered := 0
	if err := m.RegisterFormat(oldFmt, func(*pbio.Record) error { delivered++; return nil }); err != nil {
		t.Fatal(err)
	}
	rec := pbio.NewRecord(newFmt).MustSet("symbol", pbio.Str("A"))

	// Unweighted: the audit field drops silently.
	if err := m.Deliver(rec); err != nil {
		t.Fatalf("unweighted delivery: %v", err)
	}

	// With the audit trail marked critical, the same message is rejected.
	m.SetWeigher(func(path string, _ *pbio.Field) float64 {
		if path == "audit" {
			return 1000
		}
		return 1
	})
	if err := m.Deliver(rec); err == nil {
		t.Fatal("weighted morpher must reject dropping the audit field")
	}

	// Clearing the weigher restores the old behaviour (and invalidates the
	// cached rejection).
	m.SetWeigher(nil)
	if err := m.Deliver(rec); err != nil {
		t.Fatalf("after clearing weigher: %v", err)
	}
	if delivered != 2 {
		t.Errorf("delivered = %d, want 2", delivered)
	}
}
