package pbio

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestFormatSerdeRoundtrip(t *testing.T) {
	contact := mustFormatT(t, "contact", []Field{
		basicField("info", String),
		{Name: "id", Kind: Integer, Size: 4},
	})
	f := mustFormatT(t, "resp", []Field{
		{Name: "count", Kind: Integer, Size: 4, Default: Int(0)},
		{Name: "members", Kind: List, Elem: &Field{Kind: Complex, Sub: contact}},
		{Name: "color", Kind: Enum, Size: 2, Symbols: []string{"red", "green", "blue"}},
		{Name: "ratio", Kind: Float, Default: Float64(1.5)},
		{Name: "tag", Kind: String, Default: Str("none")},
		{Name: "flag", Kind: Boolean, Default: Bool(true)},
	})

	blob := EncodeFormat(f)
	got, err := DecodeFormat(blob)
	if err != nil {
		t.Fatalf("DecodeFormat: %v", err)
	}
	if got.Fingerprint() != f.Fingerprint() {
		t.Fatalf("fingerprint changed across serde: %x vs %x\norig:\n%s\ngot:\n%s",
			f.Fingerprint(), got.Fingerprint(), f, got)
	}
	if got.Name() != "resp" || got.NumFields() != f.NumFields() {
		t.Fatal("structure lost across serde")
	}
	if d := got.FieldByName("ratio").Default; d.Float64() != 1.5 {
		t.Errorf("float default lost: %v", d)
	}
	if d := got.FieldByName("tag").Default; d.Strval() != "none" {
		t.Errorf("string default lost: %v", d)
	}
	if d := got.FieldByName("flag").Default; d.Int64() != 1 {
		t.Errorf("bool default lost: %v", d)
	}
	if syms := got.FieldByName("color").Symbols; len(syms) != 3 || syms[2] != "blue" {
		t.Errorf("enum symbols lost: %v", syms)
	}
	// A record encoded under the original decodes under the reconstruction.
	r := NewRecord(f).MustSet("count", Int(1)).MustSet("tag", Str("x"))
	if _, err := DecodeRecord(EncodeRecord(r), got); err != nil {
		t.Fatalf("cross-decode after serde: %v", err)
	}
}

func TestDecodeFormatErrors(t *testing.T) {
	f := mustFormatT(t, "f", []Field{basicField("x", Integer)})
	blob := EncodeFormat(f)

	t.Run("empty", func(t *testing.T) {
		if _, err := DecodeFormat(nil); !errors.Is(err, ErrBadFormatBlob) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte{99}, blob[1:]...)
		if _, err := DecodeFormat(bad); !errors.Is(err, ErrBadFormatBlob) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := DecodeFormat(append(append([]byte{}, blob...), 1)); !errors.Is(err, ErrBadFormatBlob) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for cut := 1; cut < len(blob); cut++ {
			if _, err := DecodeFormat(blob[:len(blob)-cut]); err == nil {
				t.Fatalf("truncation at %d accepted", len(blob)-cut)
			}
		}
	})
	t.Run("deep nesting bomb", func(t *testing.T) {
		// Hand-build a blob with 100 levels of complex nesting: it must be
		// rejected by the depth guard, not crash the stack.
		var blob []byte
		blob = append(blob, formatBlobVersion)
		for i := 0; i < 100; i++ {
			blob = appendString(blob, "f")
			blob = append(blob, 1) // one field
			blob = appendString(blob, "c")
			blob = append(blob, byte(Complex), 0)
		}
		if _, err := DecodeFormat(blob); !errors.Is(err, ErrBadFormatBlob) {
			t.Errorf("err = %v, want ErrBadFormatBlob", err)
		}
	})
	t.Run("list nesting bomb", func(t *testing.T) {
		// A chain of list-of-list element descriptors is invalid, but the
		// depth guard must stop it before validation could.
		blob := appendString([]byte{formatBlobVersion}, "f")
		blob = append(blob, 1)
		for i := 0; i < 1<<16; i++ {
			blob = appendString(blob, "")
			blob = append(blob, byte(List), 0)
		}
		_, err := DecodeFormat(blob)
		if !errors.Is(err, ErrBadFormatBlob) || !strings.Contains(err.Error(), "too deep") {
			t.Errorf("err = %v, want ErrBadFormatBlob for nesting", err)
		}
	})
}

// TestQuickFormatBlobNeverPanics: corrupt blobs must never panic.
func TestQuickFormatBlobNeverPanics(t *testing.T) {
	prop := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = DecodeFormat(data)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFormatBlobMutations flips bytes of a valid blob; decode must
// either fail cleanly or produce a *valid* format (never a format that the
// encoder would later choke on).
func TestQuickFormatBlobMutations(t *testing.T) {
	f := kitchenSinkFormat(t)
	blob := EncodeFormat(f)
	prop := func(pos int, val byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		mut := append([]byte{}, blob...)
		mut[abs(pos)%len(mut)] = val
		got, err := DecodeFormat(mut)
		if err != nil {
			return true
		}
		// If it decoded, the format must be usable end to end.
		_, err = DecodeRecord(EncodeRecord(NewRecord(got)), got)
		return err == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		if x == -x { // math.MinInt
			return 0
		}
		return -x
	}
	return x
}
