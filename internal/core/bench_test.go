package core

import (
	"fmt"
	"testing"

	"repro/internal/pbio"
)

// benchFormats builds n structurally distinct formats sharing a name, each
// with ~f fields.
func benchFormats(b *testing.B, n, fields int) []*pbio.Format {
	b.Helper()
	out := make([]*pbio.Format, n)
	for i := range out {
		fs := make([]pbio.Field, 0, fields)
		for j := 0; j < fields; j++ {
			fs = append(fs, pbio.Field{
				Name: fmt.Sprintf("f%02d_%02d", (i+j)%fields, j),
				Kind: pbio.Integer,
			})
		}
		f, err := pbio.NewFormat("bench", fs)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = f
	}
	return out
}

// BenchmarkMaxMatchScaling measures the cold matching cost as the candidate
// sets grow — the cost that, thanks to the decision cache, is paid once per
// format rather than per message.
func BenchmarkMaxMatchScaling(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("candidates-%d", n), func(b *testing.B) {
			f1s := benchFormats(b, n, 16)
			f2s := benchFormats(b, n, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := MaxMatch(f1s, f2s, Thresholds{Diff: 64, Mismatch: 1}, nil); !ok {
					b.Fatal("no match")
				}
			}
		})
	}
}

// BenchmarkDiff measures Algorithm 1 itself on the paper's v1/v2 formats:
// unit counts through Diff, and importance weights, which only MaxMatch
// takes, on the one pair.
func BenchmarkDiff(b *testing.B) {
	v1, v2 := echoBenchFormats(b)
	b.Run("unit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if Diff(v1, v2) != 6 {
				b.Fatal("wrong diff")
			}
		}
	})
	b.Run("weighted", func(b *testing.B) {
		w := func(path string, _ *pbio.Field) float64 {
			if path == "member_list.info" {
				return 5
			}
			return 1
		}
		pair := []*pbio.Format{v1}
		to := []*pbio.Format{v2}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m, ok := MaxMatch(pair, to, Thresholds{Diff: 64, Mismatch: 1}, w); !ok || m.Diff <= 0 {
				b.Fatal("wrong diff")
			}
		}
	})
}

// BenchmarkMorpherDeliverCached is the steady-state fast path: one map
// lookup plus the cached transform chain.
func BenchmarkMorpherDeliverCached(b *testing.B) {
	v1, v2 := echoBenchFormats(b)
	m := NewMorpher(DefaultThresholds)
	if err := m.RegisterFormat(v1, func(*pbio.Record) error { return nil }); err != nil {
		b.Fatal(err)
	}
	if err := m.AddTransform(&Xform{From: v2, To: v1, Code: figure5}); err != nil {
		b.Fatal(err)
	}
	member := v2.FieldByName("member_list").Elem.Sub
	rec := pbio.NewRecord(v2).
		MustSet("member_count", pbio.Int(1)).
		MustSet("member_list", pbio.ListOf([]pbio.Value{
			pbio.RecordOf(pbio.NewRecord(member).
				MustSet("info", pbio.Str("tcp:x:1")).
				MustSet("ID", pbio.Int(1)).
				MustSet("is_Source", pbio.Bool(true))),
		}))
	if err := m.Deliver(rec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Deliver(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func echoBenchFormats(b *testing.B) (v1, v2 *pbio.Format) {
	b.Helper()
	entry, err := pbio.NewFormat("MemberEntry", []pbio.Field{
		{Name: "info", Kind: pbio.String},
		{Name: "ID", Kind: pbio.Integer, Size: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	memberV2, err := pbio.NewFormat("MemberV2", []pbio.Field{
		{Name: "info", Kind: pbio.String},
		{Name: "ID", Kind: pbio.Integer, Size: 4},
		{Name: "is_Source", Kind: pbio.Boolean},
		{Name: "is_Sink", Kind: pbio.Boolean},
	})
	if err != nil {
		b.Fatal(err)
	}
	v1, err = pbio.NewFormat("ChannelOpenResponse", []pbio.Field{
		{Name: "member_count", Kind: pbio.Integer, Size: 4},
		{Name: "member_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: entry}},
		{Name: "src_count", Kind: pbio.Integer, Size: 4},
		{Name: "src_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: entry}},
		{Name: "sink_count", Kind: pbio.Integer, Size: 4},
		{Name: "sink_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: entry}},
	})
	if err != nil {
		b.Fatal(err)
	}
	v2, err = pbio.NewFormat("ChannelOpenResponse", []pbio.Field{
		{Name: "member_count", Kind: pbio.Integer, Size: 4},
		{Name: "member_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: memberV2}},
	})
	if err != nil {
		b.Fatal(err)
	}
	return v1, v2
}
