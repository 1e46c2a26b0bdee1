package ecode

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/pbio"
)

// numericFields is every numeric (kind, size) pair a format may declare.
var numericFields = []pbio.Field{
	{Kind: pbio.Integer, Size: 1}, {Kind: pbio.Integer, Size: 2}, {Kind: pbio.Integer, Size: 4}, {Kind: pbio.Integer, Size: 8},
	{Kind: pbio.Unsigned, Size: 1}, {Kind: pbio.Unsigned, Size: 2}, {Kind: pbio.Unsigned, Size: 4}, {Kind: pbio.Unsigned, Size: 8},
	{Kind: pbio.Enum, Size: 1}, {Kind: pbio.Enum, Size: 2}, {Kind: pbio.Enum, Size: 4}, {Kind: pbio.Enum, Size: 8},
	{Kind: pbio.Float, Size: 4}, {Kind: pbio.Float, Size: 8},
	{Kind: pbio.Char, Size: 1}, {Kind: pbio.Boolean, Size: 1},
}

// TestNumericStoreMatchesRecordLane: a field-to-field store in Ecode leaves
// the destination exactly as the record lane's copy does — SetIndex of the
// source's GetIndex — for every pair of numeric kinds and widths and for
// values at the edges where a conversion can go wrong: fractions that
// truncate to zero, a negative fraction, 2^31 and an unsigned value above
// 2^63.
func TestNumericStoreMatchesRecordLane(t *testing.T) {
	edges := []pbio.Value{
		pbio.Float64(0.5), pbio.Float64(-0.5), pbio.Float64(-1.5),
		pbio.Int(1 << 31), pbio.Uint(1<<63 + 4096),
	}
	for _, sf := range numericFields {
		for _, df := range numericFields {
			sf, df := sf, df
			sf.Name, df.Name = "g", "f"
			src := fmtOrDie(t, "src", []pbio.Field{sf})
			dst := fmtOrDie(t, "dst", []pbio.Field{df})
			name := fmt.Sprintf("%v%d→%v%d", sf.Kind, sf.Size, df.Kind, df.Size)
			prog, err := Compile("old.f = new.g;", Param{Name: "new", Format: src}, Param{Name: "old", Format: dst})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, v := range edges {
				in := pbio.NewRecord(src)
				if err := in.SetIndex(0, v); err != nil {
					t.Fatal(err)
				}
				want := pbio.NewRecord(dst)
				if err := want.SetIndex(0, in.GetIndex(0)); err != nil {
					t.Fatal(err)
				}
				got := pbio.NewRecord(dst)
				if _, err := prog.Run(in, got); err != nil {
					t.Fatalf("%s, %v: %v", name, v, err)
				}
				if !bytes.Equal(pbio.EncodeRecord(got), pbio.EncodeRecord(want)) {
					t.Errorf("%s, source %v: Ecode stored %v, the record lane %v", name, in.GetIndex(0), got.GetIndex(0), want.GetIndex(0))
				}
			}
		}
	}

	// The two stores that used to differ, spelled out.
	u64 := fmtOrDie(t, "src", []pbio.Field{{Name: "g", Kind: pbio.Unsigned, Size: 8}})
	f64 := fmtOrDie(t, "dst", []pbio.Field{{Name: "f", Kind: pbio.Float, Size: 8}})
	in := pbio.NewRecord(u64).MustSet("g", pbio.Uint(1<<63+4096))
	out := pbio.NewRecord(f64)
	MustCompile("old.f = new.g;", Param{Name: "new", Format: u64}, Param{Name: "old", Format: f64}).Run(in, out)
	if got := out.GetIndex(0).Float64(); got != 1<<63+4096 {
		t.Errorf("unsigned 2^63+4096 into a double stored %g", got)
	}
	dbl := fmtOrDie(t, "src", []pbio.Field{{Name: "g", Kind: pbio.Float, Size: 8}})
	bl := fmtOrDie(t, "dst", []pbio.Field{{Name: "f", Kind: pbio.Boolean}})
	in = pbio.NewRecord(dbl).MustSet("g", pbio.Float64(0.5))
	out = pbio.NewRecord(bl)
	MustCompile("old.f = new.g;", Param{Name: "new", Format: dbl}, Param{Name: "old", Format: bl}).Run(in, out)
	if !out.GetIndex(0).Bool() {
		t.Error("double 0.5 into a boolean stored false")
	}
}
