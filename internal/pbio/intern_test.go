package pbio

import (
	"hash/maphash"
	"runtime"
	"sync"
	"testing"
	"time"
)

// internKey is the table key of a format whose encoding is blob.
func internKey(blob []byte) uint64 { return maphash.Bytes(interned.seed, blob) }

// internHolds reports whether the intern table has an entry under key.
func internHolds(key uint64) bool {
	interned.Lock()
	defer interned.Unlock()
	_, ok := interned.m[key]
	return ok
}

// TestInternConcurrentDecode: goroutines decoding one blob at once all get
// one object, and building a format never writes to the shared formats it
// nests while other goroutines read them (run it under -race).
func TestInternConcurrentDecode(t *testing.T) {
	pt := mustFormatT(t, "intern.concurrent.pt", []Field{basicField("x", Integer), basicField("label", String)})
	blob := EncodeFormat(mustFormatT(t, "intern.concurrent", []Field{
		basicField("a", Integer), basicField("b", String), {Name: "c", Kind: List, Elem: &Field{Kind: Float}},
		{Name: "d", Kind: Complex, Sub: pt}, {Name: "e", Kind: List, Elem: &Field{Kind: Complex, Sub: pt}},
	}))
	const workers, rounds = 8, 50
	got := make([][]*Format, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f, err := DecodeFormat(blob)
				if err != nil {
					t.Error(err)
					return
				}
				_ = EncodeFormat(f)
				got[w] = append(got[w], f)
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i, f := range got[w] {
			if f != got[0][0] {
				t.Fatalf("goroutine %d, decode %d: another object than goroutine 0's first", w, i)
			}
		}
	}
}

// TestInternRoundTrip: decoding a live format's encoding returns the format
// itself, and a nested format decodes to the live object it encodes.
func TestInternRoundTrip(t *testing.T) {
	pt := mustFormatT(t, "intern.pt", []Field{basicField("x", Integer), basicField("y", Integer)})
	f := mustFormatT(t, "intern.outer", []Field{basicField("id", Unsigned), {Name: "at", Kind: Complex, Sub: pt}})
	if again, err := DecodeFormat(EncodeFormat(f)); err != nil || again != f {
		t.Fatalf("DecodeFormat(EncodeFormat(f)): same object = %v, err = %v", again == f, err)
	}
	if again := mustFormatT(t, "intern.outer", f.Fields()); again != f {
		t.Error("NewFormat over a live format's fields built another object")
	}
	other, err := DecodeFormat(EncodeFormat(mustFormatT(t, "intern.other", []Field{{Name: "p", Kind: Complex, Sub: pt}})))
	if err != nil {
		t.Fatal(err)
	}
	if other.Field(0).Sub != pt {
		t.Error("a nested format decoded to another object than the live one")
	}
}

// TestInternKeepsDefaultVariants: two formats that differ only in a default
// share a fingerprint, the natural collision, but not an encoding; they stay
// two objects and each decodes to its own.
func TestInternKeepsDefaultVariants(t *testing.T) {
	a := mustFormatT(t, "intern.variant", []Field{basicField("x", Integer), basicField("y", Float)})
	b := mustFormatT(t, "intern.variant", []Field{{Name: "x", Kind: Integer, Default: Int(7)}, basicField("y", Float)})
	if !a.SameStructure(b) || a == b {
		t.Fatalf("variants: SameStructure = %v, same object = %v; want true, false", a.SameStructure(b), a == b)
	}
	for _, f := range []*Format{a, b, a, b} {
		if got, err := DecodeFormat(EncodeFormat(f)); err != nil || got != f {
			t.Errorf("decoding variant %p: got %p, err = %v", f, got, err)
		}
	}
}

// TestInternReleasesDeadFormats: once the last reference to a format is
// gone and the collector has run, its cleanup drops the table entry, and a
// later decode builds a fresh, valid object.
func TestInternReleasesDeadFormats(t *testing.T) {
	build := func() ([]byte, uint64) {
		f := mustFormatT(t, "intern.release", []Field{basicField("n", Integer), basicField("s", String)})
		return EncodeFormat(f), f.Fingerprint()
	}
	blob, fp := build()
	key := internKey(blob)
	deadline := time.Now().Add(10 * time.Second)
	for internHolds(key) {
		if time.Now().After(deadline) {
			t.Fatal("the intern table still holds a dead format's entry")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	f, err := DecodeFormat(blob)
	if err != nil {
		t.Fatal(err)
	}
	if f.Fingerprint() != fp || f.Lookup("s") != 1 || string(EncodeFormat(f)) != string(blob) {
		t.Errorf("rebuilt format: fingerprint %016x (want %016x), Lookup(s) = %d", f.Fingerprint(), fp, f.Lookup("s"))
	}
	if !internHolds(key) {
		t.Error("the rebuilt format is not in the intern table")
	}
	runtime.KeepAlive(f)
}

// TestUninternKeepsLaterEntry: a cleanup never removes a live entry. A
// format that died leaves its cleanup pending; if a later format has taken
// the slot meanwhile, that cleanup leaves the later entry alone.
func TestUninternKeepsLaterEntry(t *testing.T) {
	f := mustFormatT(t, "intern.slot", []Field{basicField("x", Integer)})
	key := internKey(EncodeFormat(f))
	interned.Lock()
	wp := interned.m[key]
	interned.Unlock()
	if wp.Value() != f {
		t.Fatal("a built format is not in the intern table")
	}
	unintern(key) // an earlier occupant's cleanup
	interned.Lock()
	kept := interned.m[key] == wp
	interned.Unlock()
	if !kept {
		t.Error("a stale cleanup removed a later format's entry")
	}
	runtime.KeepAlive(f)
}
