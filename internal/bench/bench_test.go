package bench

import (
	"strings"
	"testing"
	"time"
)

func newHarness(t *testing.T) *Harness {
	t.Helper()
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// fastOpts keeps shape tests quick: two sizes, short measuring windows.
var fastOpts = Options{
	Sizes:    []int{1_000, 10_000},
	Labels:   []string{"1KB", "10KB"},
	MinTotal: 5 * time.Millisecond,
}

func TestResponseSizing(t *testing.T) {
	for _, target := range FigureSizes {
		rec := Response(target)
		got := rec.NativeSize()
		// Within one member entry (~35 bytes) above the target.
		if got < target || got > target+64 {
			t.Errorf("Response(%d) native size = %d", target, got)
		}
		if !rec.Format().SameStructure(newHarness(t).V2) {
			t.Errorf("workload format is not v2.0")
		}
	}
	if n := ResponseWithMembers(5); countMembers(n) != 5 {
		t.Errorf("ResponseWithMembers(5) has %d members", countMembers(n))
	}
}

func TestPipelinesAgree(t *testing.T) {
	h := newHarness(t)
	rec := Response(5_000)
	pbioData := h.PBIOEncode(rec)
	xmlData := h.XMLEncode(rec)

	if err := h.checkDecode(pbioData, xmlData); err != nil {
		t.Fatal(err)
	}
	if err := h.checkMorph(pbioData, xmlData); err != nil {
		t.Fatal(err)
	}

	// Decode roundtrip equals the original.
	dec, err := h.PBIODecode(pbioData)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(rec) {
		t.Error("pbio decode is not the inverse of encode")
	}

	// Morph output is a valid v1.0 record with consistent counts.
	v1rec, err := h.MorphDecode(pbioData)
	if err != nil {
		t.Fatal(err)
	}
	mc, _ := v1rec.Get("member_count")
	ml, _ := v1rec.Get("member_list")
	if mc.Int64() != int64(ml.Len()) {
		t.Errorf("member_count %d != list length %d", mc.Int64(), ml.Len())
	}
	sc, _ := v1rec.Get("src_count")
	sl, _ := v1rec.Get("src_list")
	if sc.Int64() != int64(sl.Len()) {
		t.Errorf("src_count %d != src_list length %d", sc.Int64(), sl.Len())
	}
}

// TestShapeFigure8: XML encoding costs at least ~2x PBIO (the paper says
// "at least twice"; we assert a conservative 1.5x to stay robust across
// machines).
func TestShapeFigure8(t *testing.T) {
	h := newHarness(t)
	for _, p := range h.EncodeSweep(fastOpts) {
		if ratio := float64(p.XML) / float64(p.PBIO); ratio < 1.5 {
			t.Errorf("size %s: XML/PBIO encode ratio = %.2f, want ≥ 1.5", p.Label, ratio)
		}
	}
}

// TestShapeFigure9: parsing XML is far more expensive than decoding PBIO
// (paper shows 1–2 orders of magnitude; assert ≥3x conservatively).
func TestShapeFigure9(t *testing.T) {
	h := newHarness(t)
	points, err := h.DecodeSweep(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if ratio := float64(p.XML) / float64(p.PBIO); ratio < 3 {
			t.Errorf("size %s: XML/PBIO decode ratio = %.2f, want ≥ 3", p.Label, ratio)
		}
	}
}

// TestShapeFigure10: evolution via XML/XSLT costs more than PBIO message
// morphing at every size. Ordering only — the paper's order-of-magnitude
// ratio is a wall-clock figure, and those are read off benchmark/, not
// asserted inside go test on a box whose speed drifts.
func TestShapeFigure10(t *testing.T) {
	h := newHarness(t)
	points, err := h.MorphSweep(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.PBIO >= p.XML {
			t.Errorf("size %s: morphing (%v) not cheaper than XSLT (%v)", p.Label, p.PBIO, p.XML)
		}
	}
}

// TestShapeTable1 checks the table's qualitative structure: PBIO adds <30
// bytes; rolling back to v1.0 roughly triples the data (the paper's rows
// show ~3x at scale); XML inflates several-fold.
func TestShapeTable1(t *testing.T) {
	h := newHarness(t)
	rows, err := h.SizeTable([]int{100, 1_000, 10_000, 100_000, 1_000_000}, Table1Labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if over := r.PBIOV2 - r.UnencodedV2; over >= 30 {
			t.Errorf("%s KB: PBIO overhead %d bytes, want < 30", r.Label, over)
		}
		if r.XMLV2 <= r.UnencodedV2 {
			t.Errorf("%s KB: XML v2 (%d) must exceed unencoded (%d)", r.Label, r.XMLV2, r.UnencodedV2)
		}
		if r.XMLV1 <= r.XMLV2 {
			t.Errorf("%s KB: XML v1 (%d) must exceed XML v2 (%d)", r.Label, r.XMLV1, r.XMLV2)
		}
	}
	// At scale, v1.0 duplication roughly triples member data (the workload
	// marks every member a source or sink or both, as the paper's channel
	// membership does).
	big := rows[len(rows)-1]
	growth := float64(big.UnencodedV1) / float64(big.UnencodedV2)
	if growth < 1.8 || growth > 3.5 {
		t.Errorf("v1 rollback growth = %.2fx, want within [1.8, 3.5] (~3x in the paper)", growth)
	}
	// XML inflation is substantial (the paper's 1000 KB column shows ~6x
	// for v2.0).
	if inflation := float64(big.XMLV2) / float64(big.UnencodedV2); inflation < 2 {
		t.Errorf("XML inflation = %.2fx, want ≥ 2", inflation)
	}
}

func TestAblations(t *testing.T) {
	h := newHarness(t)
	// Use a tiny message so the per-message transform cost does not drown
	// the fixed MaxMatch+compile cost this ablation isolates (under -race
	// the transform slows down more than the match does).
	cold, cached, err := h.AblationColdVsCached(100, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cold <= cached {
		t.Errorf("cold path (%v) must cost more than cached (%v)", cold, cached)
	}
	vm, native, err := h.AblationEcodeVsNative(1_000, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if vm <= 0 || native <= 0 {
		t.Errorf("ablation timings must be positive: vm=%v native=%v", vm, native)
	}
}

func TestReportPrinters(t *testing.T) {
	h := newHarness(t)
	points := h.EncodeSweep(Options{Sizes: []int{100}, Labels: []string{"100B"}, MinTotal: time.Millisecond})
	var fig strings.Builder
	PrintFigure(&fig, "Figure 8. Encoding cost", "PBIO", "XML", points)
	if !strings.Contains(fig.String(), "Figure 8") || !strings.Contains(fig.String(), "100B") {
		t.Errorf("figure output wrong:\n%s", fig.String())
	}
	var csv strings.Builder
	PrintFigureCSV(&csv, points)
	if !strings.HasPrefix(csv.String(), "size_label,base_bytes,pbio_ns,xml_ns\n") {
		t.Errorf("csv output wrong:\n%s", csv.String())
	}

	rows, err := h.SizeTable([]int{100}, []string{".1"})
	if err != nil {
		t.Fatal(err)
	}
	var tbl strings.Builder
	PrintTable1(&tbl, rows)
	for _, want := range []string{"Unencoded v2.0", "PBIO Encoded v2.0", "XML v1.0"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("table output missing %q:\n%s", want, tbl.String())
		}
	}
	var tcsv strings.Builder
	PrintTable1CSV(&tcsv, rows)
	if !strings.Contains(tcsv.String(), "label,unencoded_v2") {
		t.Errorf("table csv wrong:\n%s", tcsv.String())
	}

	decode, err := h.DecodeSweep(Options{Sizes: []int{100}, Labels: []string{"100B"}, MinTotal: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	morph, err := h.MorphSweep(Options{Sizes: []int{100}, Labels: []string{"100B"}, MinTotal: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sum := Summary(points, decode, morph, rows)
	if !strings.Contains(sum, "geo-mean") {
		t.Errorf("summary wrong:\n%s", sum)
	}
}

func TestTimeItTerminatesOnFastFunc(t *testing.T) {
	d := timeIt(func() {}, time.Millisecond)
	if d < 0 {
		t.Error("negative duration")
	}
}

func TestMsAndKbFormatting(t *testing.T) {
	if ms(2500*time.Microsecond) != "2.50" {
		t.Errorf("ms = %q", ms(2500*time.Microsecond)) //nolint
	}
	if ms(150*time.Millisecond) != "150" {
		t.Errorf("ms = %q", ms(150*time.Millisecond))
	}
	if ms(50*time.Microsecond) != "0.0500" {
		t.Errorf("ms = %q", ms(50*time.Microsecond))
	}
	if kb(123) != "0.12" || kb(1500) != "1.5" || kb(100_000) != "100" {
		t.Errorf("kb formatting wrong: %q %q %q", kb(123), kb(1500), kb(100_000))
	}
}

var sinkBytes []byte //nolint:gochecknoglobals // benchmark sink

func TestPBIOFasterEvenWithValidation(t *testing.T) {
	// Guard against accidental regressions making the PBIO path slower
	// than the XML path at tiny sizes, where fixed costs dominate.
	h := newHarness(t)
	rec := Response(100)
	pbioTime := timeIt(func() { sinkBytes = h.PBIOEncode(rec) }, 2*time.Millisecond)
	xmlTime := timeIt(func() { sinkBytes = h.XMLEncode(rec) }, 2*time.Millisecond)
	if pbioTime > xmlTime {
		t.Errorf("PBIO encode (%v) slower than XML (%v) at 100B", pbioTime, xmlTime)
	}
	_ = sinkBytes
}

func TestHarnessFormatsAreCanonical(t *testing.T) {
	h := newHarness(t)
	if h.V1.Name() != "ChannelOpenResponse" || h.V2.Name() != "ChannelOpenResponse" {
		t.Error("format names must both be ChannelOpenResponse (matching is name-scoped)")
	}
	if h.V1.SameStructure(h.V2) {
		t.Error("v1 and v2 must be structurally different")
	}
}

func BenchmarkSanityMorph1KB(b *testing.B) {
	h, err := NewHarness()
	if err != nil {
		b.Fatal(err)
	}
	data := h.PBIOEncode(Response(1000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.MorphDecode(data); err != nil {
			b.Fatal(err)
		}
	}
}
