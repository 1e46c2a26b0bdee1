package pbio

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// fixedKitchenFormat has every fixed-width kind plus a nested complex field —
// fixed-stride despite the nesting.
func fixedKitchenFormat(t *testing.T) *Format {
	t.Helper()
	point := mustFormatT(t, "point", []Field{
		{Name: "x", Kind: Float, Size: 4},
		{Name: "y", Kind: Float, Size: 8},
	})
	return mustFormatT(t, "telemetry", []Field{
		{Name: "i8", Kind: Integer, Size: 1},
		{Name: "i32", Kind: Integer, Size: 4},
		{Name: "u16", Kind: Unsigned, Size: 2},
		{Name: "c", Kind: Char},
		{Name: "e", Kind: Enum, Size: 2, Symbols: []string{"red", "green"}},
		{Name: "b", Kind: Boolean},
		{Name: "f32", Kind: Float, Size: 4},
		{Name: "pos", Kind: Complex, Sub: point},
		{Name: "i64", Kind: Integer, Size: 8},
	})
}

func TestLayoutFixedStride(t *testing.T) {
	f := fixedKitchenFormat(t)
	l := f.Layout()
	if !l.Fixed() {
		t.Fatalf("format with only fixed-width fields not classified fixed:\n%s", f)
	}
	// 1+4+2+1+2+1+4+(4+8)+8
	const want = 35
	if l.Size() != want {
		t.Fatalf("Size() = %d, want %d", l.Size(), want)
	}
	if l.PrefixFields() != f.NumFields() || l.PrefixSize() != want {
		t.Fatalf("prefix = (%d fields, %d bytes), want full format (%d, %d)",
			l.PrefixFields(), l.PrefixSize(), f.NumFields(), want)
	}
	// The offset table must agree with the encoder: every field's span must
	// land where the encoder actually writes it.
	wantOffsets := []int{0, 1, 5, 7, 8, 10, 11, 15, 27}
	wantWidths := []int{1, 4, 2, 1, 2, 1, 4, 12, 8}
	for i := 0; i < f.NumFields(); i++ {
		off, w, ok := l.FieldSpan(i)
		if !ok {
			t.Fatalf("FieldSpan(%d) not ok on fixed format", i)
		}
		if off != wantOffsets[i] || w != wantWidths[i] {
			t.Errorf("FieldSpan(%d) = (%d, %d), want (%d, %d)", i, off, w, wantOffsets[i], wantWidths[i])
		}
	}
	if _, _, ok := l.FieldSpan(f.NumFields()); ok {
		t.Error("FieldSpan beyond the last field reported ok")
	}
	// Layout size must equal the real encoded payload size.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 16; trial++ {
		r := randomRecord(rng, f)
		if got := EncodedSize(r) - EnvelopeSize; got != l.Size() {
			t.Fatalf("encoded payload %d bytes, layout says %d", got, l.Size())
		}
	}
}

// TestLayoutFirstUseConcurrent: goroutines racing on a shared format's
// first Layout call all get the same analysis.
func TestLayoutFirstUseConcurrent(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		f := fixedKitchenFormat(t)
		got := make([]*Layout, 4)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = f.Layout()
			}(g)
		}
		wg.Wait()
		for g, l := range got {
			if l == nil || l != f.Layout() {
				t.Fatalf("trial %d: goroutine %d got layout %p, format holds %p", trial, g, l, f.Layout())
			}
		}
	}
}

func TestLayoutVariablePrefix(t *testing.T) {
	f := mustFormatT(t, "mixed", []Field{
		{Name: "a", Kind: Integer, Size: 4},
		{Name: "b", Kind: Float, Size: 8},
		{Name: "s", Kind: String},
		{Name: "c", Kind: Integer, Size: 2},
	})
	l := f.Layout()
	if l.Fixed() {
		t.Fatal("format containing a string classified fixed")
	}
	if l.Size() != 0 {
		t.Fatalf("Size() = %d on a variable format, want 0", l.Size())
	}
	if l.PrefixFields() != 2 || l.PrefixSize() != 12 {
		t.Fatalf("prefix = (%d fields, %d bytes), want (2, 12)", l.PrefixFields(), l.PrefixSize())
	}
	if off, w, ok := l.FieldSpan(1); !ok || off != 4 || w != 8 {
		t.Fatalf("FieldSpan(1) = (%d, %d, %v), want (4, 8, true)", off, w, ok)
	}
	// Fields at and beyond the first variable-width one have no static span.
	for _, i := range []int{2, 3, -1} {
		if _, _, ok := l.FieldSpan(i); ok {
			t.Errorf("FieldSpan(%d) reported ok past the fixed prefix", i)
		}
	}
}

func TestLayoutVariableViaNesting(t *testing.T) {
	inner := mustFormatT(t, "inner", []Field{
		{Name: "n", Kind: Integer, Size: 4},
		{Name: "tags", Kind: List, Elem: &Field{Kind: Integer, Size: 4}},
	})
	f := mustFormatT(t, "outer", []Field{
		{Name: "hdr", Kind: Unsigned, Size: 8},
		{Name: "payload", Kind: Complex, Sub: inner},
	})
	l := f.Layout()
	if l.Fixed() {
		t.Fatal("complex field containing a list classified fixed")
	}
	if l.PrefixFields() != 1 || l.PrefixSize() != 8 {
		t.Fatalf("prefix = (%d fields, %d bytes), want (1, 8)", l.PrefixFields(), l.PrefixSize())
	}
}

// TestDecodeFixedMatchesGeneral pins the fast decoder to the general one:
// both must produce equal records from the same payload, including sign
// extension, boolean normalization and float32 widening.
func TestDecodeFixedMatchesGeneral(t *testing.T) {
	f := fixedKitchenFormat(t)
	if !f.Layout().Fixed() {
		t.Fatal("test format must be fixed-stride")
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		r := randomRecord(rng, f)
		payload := AppendPayload(nil, r)

		fast := decodeFixed(payload, f)
		gen, err := (&decoder{buf: payload}).record(f, new(Slab))
		if err != nil {
			t.Fatalf("trial %d: general decoder failed: %v", trial, err)
		}
		if !fast.Equal(gen) {
			t.Fatalf("trial %d: fast and general decoders disagree\nfast: %s\ngen:  %s", trial, fast, gen)
		}
	}

	// Boolean normalization: a nonzero wire byte other than 1 must decode to
	// true on both lanes.
	r := randomRecord(rng, f)
	payload := AppendPayload(nil, r)
	boolOff, _, _ := f.Layout().FieldSpan(5)
	payload[boolOff] = 0xAA
	fast := decodeFixed(payload, f)
	gen, err := (&decoder{buf: payload}).record(f, new(Slab))
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Equal(gen) {
		t.Fatal("fast and general decoders disagree on non-canonical boolean byte")
	}
	if v := fast.GetIndex(5); v.Int64() != 1 {
		t.Fatalf("boolean byte 0xAA decoded to %d, want normalized 1", v.Int64())
	}
}

func TestDecodePayloadFixedLengthValidation(t *testing.T) {
	f := fixedKitchenFormat(t)
	r := randomRecord(rand.New(rand.NewSource(3)), f)
	payload := AppendPayload(nil, r)

	if _, err := DecodePayload(payload[:len(payload)-1], f); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("short payload: err = %v, want ErrShortMessage", err)
	}
	if _, err := DecodePayload(append(payload, 0), f); !errors.Is(err, ErrTrailingData) {
		t.Fatalf("long payload: err = %v, want ErrTrailingData", err)
	}
	if _, err := DecodePayload(payload, f); err != nil {
		t.Fatalf("exact payload rejected: %v", err)
	}
}
