package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/echo"
	"repro/internal/ecode"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/xmlx"
	"repro/internal/xslt"
)

// ChannelOpenV2XSL is the XSLT counterpart of the paper's Figure 5: it
// rewrites a ChannelOpenResponse v2.0 document into v1.0 form. It is the
// stylesheet applied in the XML/XSLT arm of Figure 10.
const ChannelOpenV2XSL = `<?xml version="1.0"?>
<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="/ChannelOpenResponse">
<ChannelOpenResponse>
  <member_count><xsl:value-of select="member_count"/></member_count>
  <member_list>
    <xsl:for-each select="member_list/MemberV2">
      <MemberEntry><info><xsl:value-of select="info"/></info><ID><xsl:value-of select="ID"/></ID></MemberEntry>
    </xsl:for-each>
  </member_list>
  <src_count><xsl:value-of select="count(member_list/MemberV2[is_Source='true'])"/></src_count>
  <src_list>
    <xsl:for-each select="member_list/MemberV2[is_Source='true']">
      <MemberEntry><info><xsl:value-of select="info"/></info><ID><xsl:value-of select="ID"/></ID></MemberEntry>
    </xsl:for-each>
  </src_list>
  <sink_count><xsl:value-of select="count(member_list/MemberV2[is_Sink='true'])"/></sink_count>
  <sink_list>
    <xsl:for-each select="member_list/MemberV2[is_Sink='true']">
      <MemberEntry><info><xsl:value-of select="info"/></info><ID><xsl:value-of select="ID"/></ID></MemberEntry>
    </xsl:for-each>
  </sink_list>
</ChannelOpenResponse>
</xsl:template>
</xsl:stylesheet>`

// Harness holds the compiled artifacts every experiment shares: the two
// response formats, the compiled Figure 5 program, and the compiled
// stylesheet. Compilation happens once here, outside every timed region,
// matching the paper (PBIO generates conversion code once and caches it;
// libxslt parses the stylesheet once).
type Harness struct {
	V1, V2 *pbio.Format
	fig5   *ecode.Program
	sheet  *xslt.Stylesheet
	obs    *obs.Registry
}

// SetObs attaches an observability registry: morphers created by the
// ablation experiments record their core.* decision metrics there, so a
// benchmark run can be cross-checked against the engine's own accounting
// (morphbench -obs). Nil detaches.
func (h *Harness) SetObs(reg *obs.Registry) { h.obs = reg }

// NewHarness compiles the shared experiment state.
func NewHarness() (*Harness, error) {
	fig5, err := ecode.Compile(echo.Figure5Transform,
		ecode.Param{Name: core.SrcParam, Format: echo.ResponseV2Format},
		ecode.Param{Name: core.DstParam, Format: echo.ResponseV1Format},
	)
	if err != nil {
		return nil, fmt.Errorf("bench: compile figure 5: %w", err)
	}
	sheet, err := xslt.ParseStylesheet([]byte(ChannelOpenV2XSL))
	if err != nil {
		return nil, fmt.Errorf("bench: parse stylesheet: %w", err)
	}
	return &Harness{
		V1:    echo.ResponseV1Format,
		V2:    echo.ResponseV2Format,
		fig5:  fig5,
		sheet: sheet,
	}, nil
}

// --- the measured pipelines ---

// PBIOEncode is the PBIO arm of Figure 8.
func (h *Harness) PBIOEncode(rec *pbio.Record) []byte { return pbio.EncodeRecord(rec) }

// XMLEncode is the XML arm of Figure 8 (binary→string conversion plus
// begin/end tags appended to one buffer, like the paper's sprintf/strcat
// encoder).
func (h *Harness) XMLEncode(rec *pbio.Record) []byte { return xmlx.Encode(rec) }

// PBIODecode is the PBIO arm of Figure 9: decode an encoded message back
// into a data structure.
func (h *Harness) PBIODecode(data []byte) (*pbio.Record, error) {
	return pbio.DecodeRecord(data, h.V2)
}

// XMLDecode is the XML arm of Figure 9: parse the document and traverse it
// into a data structure block.
func (h *Harness) XMLDecode(data []byte) (*pbio.Record, error) {
	return xmlx.Decode(data, h.V2)
}

// MorphDecode is the PBIO-morphing arm of Figure 10: (i) decode the message
// to its native v2.0 format, (ii) run the Figure 5 transformation to
// produce the v1.0 record the old client expects.
func (h *Harness) MorphDecode(data []byte) (*pbio.Record, error) {
	rec, err := pbio.DecodeRecord(data, h.V2)
	if err != nil {
		return nil, err
	}
	out := pbio.NewRecord(h.V1)
	if _, err := h.fig5.Run(rec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// XSLTDecode is the XML/XSLT arm of Figure 10: (i) parse the encoded
// message into a tree, (ii) apply the XSL transformation producing a new
// tree, (iii) traverse the new tree to form a v1.0 data structure block.
func (h *Harness) XSLTDecode(data []byte) (*pbio.Record, error) {
	doc, err := xmlx.Parse(data)
	if err != nil {
		return nil, err
	}
	result, err := h.sheet.TransformDocument(doc)
	if err != nil {
		return nil, err
	}
	return xmlx.Bind(result, h.V1)
}

// MorphRecord applies only the Figure 5 transformation (no decode); used by
// Table 1 to obtain the v1.0 form of a message and by the ablations.
func (h *Harness) MorphRecord(rec *pbio.Record) (*pbio.Record, error) {
	out := pbio.NewRecord(h.V1)
	if _, err := h.fig5.Run(rec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// --- timing ---

// timeIt measures f's per-call latency: it calibrates an iteration count so
// the whole measurement takes at least minTotal, then reports the best of
// three batches (minimum-of-batches is robust to scheduler noise for
// micro-measurements).
func timeIt(f func(), minTotal time.Duration) time.Duration {
	// Warm up and calibrate.
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		elapsed := time.Since(start)
		if elapsed >= minTotal || iters > 1<<20 {
			break
		}
		if elapsed <= 0 {
			iters *= 128
			continue
		}
		need := int(float64(iters) * float64(minTotal) / float64(elapsed))
		if need <= iters {
			need = iters * 2
		}
		iters = need
	}
	best := time.Duration(0)
	for batch := 0; batch < 3; batch++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		per := time.Since(start) / time.Duration(iters)
		if best == 0 || per < best {
			best = per
		}
	}
	return best
}

// --- experiments ---

// Point is one measured point of a two-series figure.
type Point struct {
	Label string
	Base  int // unencoded v2.0 bytes
	PBIO  time.Duration
	XML   time.Duration
}

// Options tunes experiment effort (the defaults match the paper's sweep).
type Options struct {
	Sizes    []int
	Labels   []string
	MinTotal time.Duration // minimum measuring time per point and series
}

func (o *Options) defaults() {
	if len(o.Sizes) == 0 {
		o.Sizes = FigureSizes
		o.Labels = FigureLabels
	}
	if len(o.Labels) != len(o.Sizes) {
		o.Labels = make([]string, len(o.Sizes))
		for i, s := range o.Sizes {
			o.Labels[i] = fmt.Sprintf("%dB", s)
		}
	}
	if o.MinTotal <= 0 {
		o.MinTotal = 50 * time.Millisecond
	}
}

// EncodeSweep regenerates Figure 8: encoding cost of PBIO vs XML across
// message sizes.
func (h *Harness) EncodeSweep(opts Options) []Point {
	opts.defaults()
	points := make([]Point, 0, len(opts.Sizes))
	for i, size := range opts.Sizes {
		rec := Response(size)
		p := Point{Label: opts.Labels[i], Base: rec.NativeSize()}
		p.PBIO = timeIt(func() { h.PBIOEncode(rec) }, opts.MinTotal)
		p.XML = timeIt(func() { h.XMLEncode(rec) }, opts.MinTotal)
		points = append(points, p)
	}
	return points
}

// DecodeSweep regenerates Figure 9: decoding cost without evolution.
func (h *Harness) DecodeSweep(opts Options) ([]Point, error) {
	opts.defaults()
	points := make([]Point, 0, len(opts.Sizes))
	for i, size := range opts.Sizes {
		rec := Response(size)
		pbioData := h.PBIOEncode(rec)
		xmlData := h.XMLEncode(rec)
		if err := h.checkDecode(pbioData, xmlData); err != nil {
			return nil, err
		}
		p := Point{Label: opts.Labels[i], Base: rec.NativeSize()}
		p.PBIO = timeIt(func() { _, _ = h.PBIODecode(pbioData) }, opts.MinTotal)
		p.XML = timeIt(func() { _, _ = h.XMLDecode(xmlData) }, opts.MinTotal)
		points = append(points, p)
	}
	return points, nil
}

// MorphSweep regenerates Figure 10: decoding cost with evolution — PBIO
// message morphing vs XML/XSLT.
func (h *Harness) MorphSweep(opts Options) ([]Point, error) {
	opts.defaults()
	points := make([]Point, 0, len(opts.Sizes))
	for i, size := range opts.Sizes {
		rec := Response(size)
		pbioData := h.PBIOEncode(rec)
		xmlData := h.XMLEncode(rec)
		if err := h.checkMorph(pbioData, xmlData); err != nil {
			return nil, err
		}
		p := Point{Label: opts.Labels[i], Base: rec.NativeSize()}
		p.PBIO = timeIt(func() { _, _ = h.MorphDecode(pbioData) }, opts.MinTotal)
		p.XML = timeIt(func() { _, _ = h.XSLTDecode(xmlData) }, opts.MinTotal)
		points = append(points, p)
	}
	return points, nil
}

// checkDecode validates both decode pipelines once per point, outside the
// timed region, so a sweep cannot silently time error paths.
func (h *Harness) checkDecode(pbioData, xmlData []byte) error {
	a, err := h.PBIODecode(pbioData)
	if err != nil {
		return fmt.Errorf("bench: pbio decode: %w", err)
	}
	b, err := h.XMLDecode(xmlData)
	if err != nil {
		return fmt.Errorf("bench: xml decode: %w", err)
	}
	if !a.Equal(b) {
		return fmt.Errorf("bench: decode pipelines disagree")
	}
	return nil
}

func (h *Harness) checkMorph(pbioData, xmlData []byte) error {
	a, err := h.MorphDecode(pbioData)
	if err != nil {
		return fmt.Errorf("bench: morph decode: %w", err)
	}
	b, err := h.XSLTDecode(xmlData)
	if err != nil {
		return fmt.Errorf("bench: xslt decode: %w", err)
	}
	if !a.Equal(b) {
		return fmt.Errorf("bench: evolution pipelines disagree:\n pbio: %d members\n xslt: %d members",
			countMembers(a), countMembers(b))
	}
	return nil
}

func countMembers(rec *pbio.Record) int {
	v, _ := rec.Get("member_list")
	return v.Len()
}

// SizeRow is one column of Table 1: the size of a ChannelOpenResponse in
// every representation, for one base size.
type SizeRow struct {
	Label       string
	UnencodedV2 int // the baseline the paper scales
	PBIOV2      int
	UnencodedV1 int
	XMLV2       int
	XMLV1       int
}

// SizeTable regenerates Table 1.
func (h *Harness) SizeTable(sizes []int, labels []string) ([]SizeRow, error) {
	rows := make([]SizeRow, 0, len(sizes))
	for i, size := range sizes {
		rec := Response(size)
		v1rec, err := h.MorphRecord(rec)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d", size)
		if labels != nil {
			label = labels[i]
		}
		rows = append(rows, SizeRow{
			Label:       label,
			UnencodedV2: rec.NativeSize(),
			PBIOV2:      pbio.EncodedSize(rec),
			UnencodedV1: v1rec.NativeSize(),
			XMLV2:       len(h.XMLEncode(rec)),
			XMLV1:       len(h.XMLEncode(v1rec)),
		})
	}
	return rows, nil
}

// --- ablations ---

// AblationColdVsCached quantifies what the decision cache buys: the cost of
// the first message of a format (MaxMatch + transformation compile) vs the
// steady-state cached path, for a message of the given base size.
func (h *Harness) AblationColdVsCached(size int, minTotal time.Duration) (cold, cached time.Duration, err error) {
	rec := Response(size)
	handler := func(*pbio.Record) error { return nil }

	cold = timeIt(func() {
		m := core.NewMorpher(core.DefaultThresholds, core.WithObs(h.obs))
		if err := m.RegisterFormat(echo.ResponseV1Format, handler); err != nil {
			panic(err)
		}
		if err := m.AddTransform(&core.Xform{
			From: echo.ResponseV2Format, To: echo.ResponseV1Format, Code: echo.Figure5Transform,
		}); err != nil {
			panic(err)
		}
		if err := m.Deliver(rec); err != nil {
			panic(err)
		}
	}, minTotal)

	m := core.NewMorpher(core.DefaultThresholds, core.WithObs(h.obs))
	if err := m.RegisterFormat(echo.ResponseV1Format, handler); err != nil {
		return 0, 0, err
	}
	if err := m.AddTransform(&core.Xform{
		From: echo.ResponseV2Format, To: echo.ResponseV1Format, Code: echo.Figure5Transform,
	}); err != nil {
		return 0, 0, err
	}
	if err := m.Deliver(rec); err != nil {
		return 0, 0, err
	}
	cached = timeIt(func() {
		if err := m.Deliver(rec); err != nil {
			panic(err)
		}
	}, minTotal)
	return cold, cached, nil
}

// AblationEcodeVsNative quantifies the cost of the no-DCG substitution: the
// Figure 5 transformation executed as compiled Ecode closures vs the same
// transformation hand-written in Go against the dynamic record API. The gap
// is the price paid for running closures instead of the paper's native
// code generation.
func (h *Harness) AblationEcodeVsNative(size int, minTotal time.Duration) (closures, native time.Duration, err error) {
	rec := Response(size)
	if _, err := h.MorphRecord(rec); err != nil {
		return 0, 0, err
	}
	closures = timeIt(func() { _, _ = h.MorphRecord(rec) }, minTotal)

	nativeXform := func() {
		members := echo.MembersFromV2(rec)
		out := echo.ResponseV1Record(members)
		_ = out
	}
	native = timeIt(nativeXform, minTotal)
	return closures, native, nil
}
