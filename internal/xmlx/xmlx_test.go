package xmlx

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pbio"
)

func fmtOrDie(t *testing.T, name string, fields []pbio.Field) *pbio.Format {
	t.Helper()
	f, err := pbio.NewFormat(name, fields)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func sampleFormat(t *testing.T) *pbio.Format {
	t.Helper()
	inner := fmtOrDie(t, "Inner", []pbio.Field{
		{Name: "x", Kind: pbio.Integer},
		{Name: "s", Kind: pbio.String},
	})
	return fmtOrDie(t, "Sample", []pbio.Field{
		{Name: "id", Kind: pbio.Integer},
		{Name: "ratio", Kind: pbio.Float},
		{Name: "name", Kind: pbio.String},
		{Name: "ok", Kind: pbio.Boolean},
		{Name: "sub", Kind: pbio.Complex, Sub: inner},
		{Name: "nums", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Integer}},
		{Name: "subs", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: inner}},
	})
}

func sampleRecord(t *testing.T, f *pbio.Format) *pbio.Record {
	t.Helper()
	innerF := f.FieldByName("sub").Sub
	mkInner := func(x int64, s string) pbio.Value {
		return pbio.RecordOf(pbio.NewRecord(innerF).
			MustSet("x", pbio.Int(x)).MustSet("s", pbio.Str(s)))
	}
	return pbio.NewRecord(f).
		MustSet("id", pbio.Int(-7)).
		MustSet("ratio", pbio.Float64(2.5)).
		MustSet("name", pbio.Str("a<b&c>d")).
		MustSet("ok", pbio.Bool(true)).
		MustSet("sub", mkInner(1, "one")).
		MustSet("nums", pbio.ListOf([]pbio.Value{pbio.Int(10), pbio.Int(20)})).
		MustSet("subs", pbio.ListOf([]pbio.Value{mkInner(2, "two"), mkInner(3, "three")}))
}

func TestEncodeShape(t *testing.T) {
	f := sampleFormat(t)
	xml := string(Encode(sampleRecord(t, f)))
	for _, want := range []string{
		"<Sample>", "</Sample>",
		"<id>-7</id>",
		"<ratio>2.5</ratio>",
		"<name>a&lt;b&amp;c&gt;d</name>",
		"<ok>true</ok>",
		"<sub><Inner><x>1</x><s>one</s></Inner></sub>",
		"<nums><item>10</item><item>20</item></nums>",
		"<subs><Inner><x>2</x><s>two</s></Inner><Inner><x>3</x><s>three</s></Inner></subs>",
	} {
		if !strings.Contains(xml, want) {
			t.Errorf("encoded XML missing %q:\n%s", want, xml)
		}
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	f := sampleFormat(t)
	rec := sampleRecord(t, f)
	got, err := Decode(Encode(rec), f)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(rec) {
		t.Fatalf("roundtrip mismatch:\n got  %v\n want %v", got, rec)
	}
}

func TestDecodeToleratesExtraAndMissing(t *testing.T) {
	f := fmtOrDie(t, "M", []pbio.Field{
		{Name: "a", Kind: pbio.Integer},
		{Name: "b", Kind: pbio.String},
	})
	// Extra element ignored, reordered fields fine, missing "b" zero.
	doc := []byte("<M><unknown>zzz</unknown><a>5</a></M>")
	rec, err := Decode(doc, f)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rec.Get("a"); v.Int64() != 5 {
		t.Errorf("a = %v", v)
	}
	if v, _ := rec.Get("b"); v.Strval() != "" {
		t.Errorf("b = %v, want zero", v)
	}
}

func TestDecodeErrors(t *testing.T) {
	f := fmtOrDie(t, "M", []pbio.Field{{Name: "a", Kind: pbio.Integer}})
	tests := []struct {
		name string
		doc  string
	}{
		{"unbalanced", "<M><a>1</a>"},
		{"wrong root", "<Other><a>1</a></Other>"},
		{"bad int", "<M><a>xyz</a></M>"},
		{"two roots", "<M></M><M></M>"},
		{"garbage", "not xml at all <"},
		{"empty", ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode([]byte(tt.doc), f); err == nil {
				t.Errorf("Decode(%q) succeeded", tt.doc)
			}
		})
	}
	boolF := fmtOrDie(t, "B", []pbio.Field{{Name: "x", Kind: pbio.Boolean}})
	if _, err := Decode([]byte("<B><x>maybe</x></B>"), boolF); err == nil {
		t.Error("bad boolean accepted")
	}
}

func TestParseDOMStructure(t *testing.T) {
	doc, err := Parse([]byte(`<root attr="v"><a>text</a><b/><a>more</a></root>`))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "root" {
		t.Fatalf("root = %q", doc.Name)
	}
	if v, ok := doc.Attrib("attr"); !ok || v != "v" {
		t.Errorf("attr = %q, %v", v, ok)
	}
	if _, ok := doc.Attrib("none"); ok {
		t.Error("missing attribute reported present")
	}
	kids := doc.ChildElements()
	if len(kids) != 3 || kids[0].Name != "a" || kids[1].Name != "b" {
		t.Fatalf("children = %v", kids)
	}
	if doc.Child("b") != kids[1] || doc.Child("zz") != nil {
		t.Error("Child lookup wrong")
	}
	if got := doc.TextContent(); got != "textmore" {
		t.Errorf("TextContent = %q", got)
	}
}

func TestRenderRoundtrip(t *testing.T) {
	src := `<root a="1"><x>hi &amp; bye</x><y><z>2</z></y></root>`
	doc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	out := string(Render(doc))
	if out != src {
		t.Errorf("Render = %q, want %q", out, src)
	}
}

func TestXMLLargerThanPBIO(t *testing.T) {
	// Table 1's qualitative claim: XML encoding inflates the message while
	// PBIO stays within 30 bytes of native size.
	f := sampleFormat(t)
	rec := sampleRecord(t, f)
	xmlSize := len(Encode(rec))
	pbioSize := pbio.EncodedSize(rec)
	native := rec.NativeSize()
	if xmlSize <= pbioSize {
		t.Errorf("XML (%d B) should exceed PBIO (%d B)", xmlSize, pbioSize)
	}
	if pbioSize-native >= 30 {
		t.Errorf("PBIO overhead = %d, want < 30", pbioSize-native)
	}
}

// TestQuickParseNeverPanics: arbitrary bytes must not panic the parser.
func TestQuickParseNeverPanics(t *testing.T) {
	prop := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Parse(data)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrBadXMLWrapped(t *testing.T) {
	if _, err := Parse([]byte("<a><b></a></b>")); !errors.Is(err, ErrBadXML) {
		t.Errorf("err = %v, want ErrBadXML", err)
	}
}
