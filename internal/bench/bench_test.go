package bench

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/pbio"
)

func newHarness(t *testing.T) *Harness {
	t.Helper()
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	return h
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

// allocCost is f's heap cost per call: the allocation count from
// testing.AllocsPerRun and the bytes those same calls allocated. Both are
// properties of the code, not of the machine, so the figure gates below
// hold on any box and under -race.
func allocCost(f func()) (allocs, bytes float64) {
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, f)
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls f once more, unmeasured, to warm up.
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
}

// shapeGate asserts that, for the workload message of every size, the XML
// arm of a figure allocates at least minAllocs times as many objects and
// minBytes times as many bytes as the PBIO arm. arms builds both operations
// for one message.
func shapeGate(t *testing.T, sizes []int, minAllocs, minBytes float64,
	arms func(h *Harness, rec *pbio.Record) (pbioOp, xmlOp func())) {
	t.Helper()
	h := newHarness(t)
	for _, size := range sizes {
		pbioOp, xmlOp := arms(h, Response(size))
		pa, pb := allocCost(pbioOp)
		xa, xb := allocCost(xmlOp)
		t.Logf("%6d B: PBIO %3.0f allocs %7.0f B, XML %6.0f allocs %8.0f B", size, pa, pb, xa, xb)
		if xa < minAllocs*pa {
			t.Errorf("%d B: XML/PBIO allocations %.0f/%.0f, want ≥ %.0fx", size, xa, pa, minAllocs)
		}
		if xb < minBytes*pb {
			t.Errorf("%d B: XML/PBIO bytes allocated %.0f/%.0f, want ≥ %.0fx", size, xb, pb, minBytes)
		}
	}
}

// TestShapeFigure8: XML encoding costs at least twice what PBIO's does (the
// paper's "at least twice"), down to the smallest message. Measured: 1
// allocation against 7, 11 and 19 at 100 B, 1 KB and 10 KB, and 12–19x
// the bytes.
func TestShapeFigure8(t *testing.T) {
	shapeGate(t, []int{100, 1_000, 10_000}, 2, 2, func(h *Harness, rec *pbio.Record) (func(), func()) {
		return func() { h.PBIOEncode(rec) }, func() { h.XMLEncode(rec) }
	})
}

// TestShapeFigure9: parsing XML is far more expensive than decoding PBIO
// (the paper's plot shows one to two orders of magnitude). Measured: 6
// allocations against 1,878 at 1 KB and 18,520 at 10 KB, and 11x the bytes.
func TestShapeFigure9(t *testing.T) {
	shapeGate(t, []int{1_000, 10_000}, 100, 5, func(h *Harness, rec *pbio.Record) (func(), func()) {
		pbioData, xmlData := h.PBIOEncode(rec), h.XMLEncode(rec)
		return func() { _, _ = h.PBIODecode(pbioData) }, func() { _, _ = h.XMLDecode(xmlData) }
	})
}

// TestShapeFigure10: evolving a message through XML/XSLT costs about an
// order of magnitude more than PBIO message morphing. Measured: 11
// allocations against 3,942 at 1 KB and 38,400 at 10 KB, and 8x the bytes.
func TestShapeFigure10(t *testing.T) {
	shapeGate(t, []int{1_000, 10_000}, 10, 3, func(h *Harness, rec *pbio.Record) (func(), func()) {
		pbioData, xmlData := h.PBIOEncode(rec), h.XMLEncode(rec)
		return func() { _, _ = h.MorphDecode(pbioData) }, func() { _, _ = h.XSLTDecode(xmlData) }
	})
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

func TestHarnessFormatsAreCanonical(t *testing.T) {
	h := newHarness(t)
	if h.V1.Name() != "ChannelOpenResponse" || h.V2.Name() != "ChannelOpenResponse" {
		t.Error("format names must both be ChannelOpenResponse (matching is name-scoped)")
	}
	if h.V1.SameStructure(h.V2) {
		t.Error("v1 and v2 must be structurally different")
	}
}
