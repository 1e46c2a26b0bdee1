package pbio_test

import (
	"runtime"
	"testing"

	"repro/internal/fleetgen"
	"repro/internal/pbio"
)

// TestDecodedFormatBytes gates the heap a decoded format keeps. A process
// holds one object per distinct format, so format churn multiplies it: a
// 10-field fleetgen generation (73 bytes on the wire) must stay within
// 1,400 bytes once decoded, its share of the intern table included. The
// blobs differ only in their name bytes, so each decode is a format of its
// own; decoding one blob over and over must retain about one format.
func TestDecodedFormatBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes differ under the race detector")
	}
	lin, err := fleetgen.NewLineage("churn", 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	f := lin.Latest().Format
	if f.NumFields() != 10 {
		t.Fatalf("generation has %d fields, want 10", f.NumFields())
	}
	blob := pbio.EncodeFormat(f)
	// blob[1] is the name's length and blob[2:7] is "churn". Its last four
	// bytes, rewritten as hex digits, name each decode apart; the decoder
	// copies the name, so one buffer rewritten in place feeds every decode.
	name := blob[3:7]

	const n = 10000
	retained := func(distinct bool) float64 {
		keep := make([]*pbio.Format, n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range keep {
			if distinct {
				for j := range name {
					name[j] = "0123456789abcdef"[i>>(12-4*j)&15]
				}
			}
			if keep[i], err = pbio.DecodeFormat(blob); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		if distinct && keep[0] == keep[1] || !distinct && keep[0] != keep[n-1] {
			t.Fatalf("distinct = %v: the decodes returned the wrong objects", distinct)
		}
		return float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
	}

	// One blob first: the distinct run leaves its formats' cleanups pending.
	one := retained(false)
	t.Logf("decoded one %d-byte blob %d times: %.0f B retained in all", len(blob), n, one)
	if one > 2*1400 {
		t.Errorf("%d decodes of one blob retain %.0f B, want about one format (<= 2800)", n, one)
	}
	per := retained(true) / n
	t.Logf("decoded %d distinct %d-byte blobs: %.0f B retained per format", n, len(blob), per)
	if per > 1400 {
		t.Errorf("a decoded 10-field format retains %.0f B, want <= 1400", per)
	}
}
