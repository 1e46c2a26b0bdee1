package pbio_test

import (
	"runtime"
	"testing"

	"repro/internal/fleetgen"
	"repro/internal/pbio"
)

// TestDecodedFormatBytes gates the heap a decoded format keeps. Every
// registry client and receiving connection holds one per fingerprint, so
// format churn multiplies it: a 10-field fleetgen generation (78 bytes on
// the wire) must stay within 1,400 bytes once decoded.
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

	const n = 10000
	keep := make([]*pbio.Format, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		if keep[i], err = pbio.DecodeFormat(blob); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)

	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("decoded %d-byte blob: %.0f B retained per format", len(blob), per)
	if per > 1400 {
		t.Errorf("a decoded 10-field format retains %.0f B, want <= 1400", per)
	}
}
