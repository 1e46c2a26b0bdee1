package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ecode"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/trace"
)

// Handler consumes a delivered record. The record's format is always one the
// handler's owner registered.
type Handler func(*pbio.Record) error

// EncodedHandler consumes a delivered message in its encoded form: a valid
// enveloped message (fingerprint + payload) of the registered format f.
// Handlers that operate on bytes — spools, relays, fan-out servers — skip
// record materialization entirely on the splice fast lane.
//
// The data slice may alias a transport-owned (pooled) buffer; it is valid
// only for the duration of the call and must be copied if retained.
type EncodedHandler func(data []byte, f *pbio.Format) error

// Morpher errors.
var (
	// ErrRejected is returned when no registered format matches an incoming
	// message within the thresholds and no default handler is installed
	// (Algorithm 2 line 18: "Reject this message").
	ErrRejected = errors.New("core: message rejected: no matching format")

	// ErrBadTransform is wrapped when network-supplied transformation code
	// fails to compile against its declared formats.
	ErrBadTransform = errors.New("core: transformation does not compile")
)

// Stats counts Morpher activity. Snapshots taken by Stats read the
// sub-counters first and Delivered last; because every delivery increments
// Delivered before any sub-counter, a snapshot always satisfies
// Delivered ≥ CacheHits, Delivered ≥ Rejected, and so on — counters never
// appear to run ahead of the deliveries that caused them, even under
// concurrent load.
type Stats struct {
	Delivered    uint64 // messages processed
	CacheHits    uint64 // messages whose format decision was already cached
	Compiled     uint64 // transformation programs compiled (cold path)
	Transformed  uint64 // messages that ran ≥1 transformation step
	Converted    uint64 // messages that needed name-wise fill/drop conversion
	Rejected     uint64 // messages with no acceptable match
	SpliceHits   uint64 // accepted deliveries completed on the encoded (byte-level) lane
	SpliceMisses uint64 // accepted deliveries that materialized a Record
}

// String renders the snapshot as one log-friendly line.
func (s Stats) String() string {
	return fmt.Sprintf("delivered=%d cache_hits=%d compiled=%d transformed=%d converted=%d rejected=%d splice_hits=%d splice_misses=%d",
		s.Delivered, s.CacheHits, s.Compiled, s.Transformed, s.Converted, s.Rejected, s.SpliceHits, s.SpliceMisses)
}

// Morpher is the receiver-side morphing engine (the paper's Algorithm 2).
//
// Readers register the formats they understand together with handlers;
// format meta-data arriving from the network contributes transformations
// (AddTransform). When a message arrives in an unknown format, the Morpher
// runs MaxMatch over the formats the message can be transformed into and the
// registered formats, compiles the needed transformation chain, caches the
// whole decision under the incoming fingerprint, and delivers. Subsequent
// messages of that format take the cached fast path.
type Morpher struct {
	th       Thresholds
	noSplice bool

	mu             sync.RWMutex
	weigher        Weigher
	regs           []*registration
	byFP           map[uint64]*registration
	xforms         map[uint64][]*Xform // outgoing edges keyed by From fingerprint
	cache          map[uint64]*decision
	defaultHandler Handler

	// Counters are obs.Counters even without a registry (private, via
	// newMorphCounters), so the hot path is identical whether or not
	// observability is enabled. The histograms and reg are nil unless
	// WithObs attached a registry; every use is behind a nil check.
	c           morphCounters
	reg         *obs.Registry
	hotHist     *obs.Histogram // sampled cached-path delivery latency
	coldHist    *obs.Histogram // decision-build latency (once per format)
	compileHist *obs.Histogram // per-transform compile latency

	// tracer is nil unless WithTracer attached one; sampled Ctx deliveries
	// then record decision/lane/step/handler spans.
	tracer *trace.Tracer

	// xsource is nil unless WithTransformSource attached one; the decision
	// build consults it before rejecting an unmatched format.
	xsource TransformSource

	// inputs holds *pbio.Slab: the memory a record-lane delivery whose
	// first operation is an Ecode program decodes the message into (see
	// applyDecision).
	inputs sync.Pool
}

// morphCounters are the activity counters of Stats.
type morphCounters struct {
	delivered, cacheHits, compiled, transformed, converted, rejected *obs.Counter
	spliceHits, spliceMisses                                         *obs.Counter
}

// newMorphCounters binds the counters to reg's "core.*" series, or — with
// a nil registry — to private counters nothing else reads.
func newMorphCounters(reg *obs.Registry) (c morphCounters) {
	for _, b := range []struct {
		c    **obs.Counter
		name string
	}{
		{&c.delivered, "core.delivered"}, {&c.cacheHits, "core.cache_hits"},
		{&c.compiled, "core.compiled"}, {&c.transformed, "core.transformed"},
		{&c.converted, "core.converted"}, {&c.rejected, "core.rejected"},
		{&c.spliceHits, "core.splice_hits"}, {&c.spliceMisses, "core.splice_misses"},
	} {
		if *b.c = reg.Counter(b.name); *b.c == nil {
			*b.c = &obs.Counter{}
		}
	}
	return c
}

// hotSampleMask: the cached delivery path records its latency once every
// hotSampleMask+1 deliveries, keeping the instrumented hot path within
// noise of the uninstrumented one — the sampling decision reuses the
// delivered counter, adding no atomics.
const hotSampleMask = 255

type registration struct {
	format     *pbio.Format
	handler    Handler
	encHandler EncodedHandler
}

// deliverRecord invokes the registration's handler with a boxed record,
// encoding it on demand when only an encoded handler is registered.
func (r *registration) deliverRecord(rec *pbio.Record) error {
	if r.handler != nil {
		return r.handler(rec)
	}
	return r.encHandler(pbio.EncodeRecord(rec), r.format)
}

// deliverEncoded invokes the registration's handler with an enveloped
// message of the registered format, decoding lazily when only a boxed
// handler is registered.
func (r *registration) deliverEncoded(data []byte) error {
	if r.encHandler != nil {
		return r.encHandler(data, r.format)
	}
	rec, err := pbio.DecodeRecord(data, r.format)
	if err != nil {
		return err
	}
	return r.handler(rec)
}

// decision is the cached outcome of the expensive path of Algorithm 2 for
// one incoming format fingerprint.
type decision struct {
	reject bool
	steps  []step     // transformation chain, in application order
	conv   *Converter // name-wise fill/drop; nil when structures align
	reg    *registration

	// Byte-level fast lane (splice.go). identity marks a structure-identical
	// match (no steps, no conv); passLen is the exact enveloped length of an
	// identity message when the format is fixed-stride (0 = not applicable),
	// enabling zero-copy pass-through; splice is the compiled byte-level
	// conversion when the whole plan reduces to copies and fills.
	identity bool
	passLen  int
	splice   *spliceProgram

	// skipAll is, for an identity decision, the plan that skips every
	// field: decoding through it validates a message an encoded handler
	// gets as it came. A converting decision decodes through its first
	// operation's own plan (first).
	skipAll *pbio.Plan
}

// first is the plan of the decision's first operation — a lowered first
// step, or the conversion of a decision with no steps — which the record
// lane runs inside the decoder; nil when the decision starts with an Ecode
// program or has no operation.
func (d *decision) first() *pbio.Plan {
	switch {
	case len(d.steps) > 0:
		return d.steps[0].plan
	case d.conv != nil:
		return d.conv.Plan
	}
	return nil
}

// step is one link of a transformation chain, producing a record of dst:
// an Ecode program, or — when the program only moves fields
// (ecode.Program.FieldMap), Figure 5's loop included — the conversion plan
// it lowers to, which runs without a VM frame. A lowered step fails where
// its program would, with the program's runtime error (a loop count past
// its list's end), but only once the payload has decoded.
type step struct {
	prog *ecode.Program // nil when lowered
	plan *pbio.Plan     // nil unless lowered
	dst  *pbio.Format
}

// run applies the step to rec, a record of the step's source format, or —
// rec nil, the step first — to payload (see through).
func (s *step) run(rec *pbio.Record, payload []byte) (*pbio.Record, error) {
	if s.plan != nil {
		return through(s.plan, rec, payload)
	}
	out := pbio.NewRecord(s.dst)
	_, err := s.prog.Run(rec, out)
	return out, err
}

// through applies plan p to rec or, when rec is nil because p is the
// decision's first operation, decodes payload through it.
func through(p *pbio.Plan, rec *pbio.Record, payload []byte) (*pbio.Record, error) {
	if rec == nil {
		return p.Decode(payload)
	}
	return p.Convert(rec)
}

// finalizeFastLane derives the decision's lane fields once, at build time.
// noSplice (WithSpliceDisabled) keeps the record lane authoritative, for
// A/B benchmarking and as an escape hatch.
func (d *decision) finalizeFastLane(noSplice bool) {
	d.identity = !d.reject && len(d.steps) == 0 && d.conv == nil
	switch {
	case d.identity:
		d.skipAll, _ = pbio.NewPlan(d.reg.format, nil, nil) // cannot fail: it skips every field
		if l := d.reg.format.Layout(); l.Fixed() && !noSplice {
			// A fixed-stride payload of the right length is fully valid, so
			// identity deliveries can forward the incoming bytes untouched.
			d.passLen = pbio.EnvelopeSize + l.Size()
		}
	case !d.reject && !noSplice && len(d.steps) == 0:
		d.splice, _ = compileSplice(d.conv)
	}
}

// MorpherOption configures a Morpher at construction time.
type MorpherOption func(*Morpher)

// WithObs attaches an observability registry: the engine's counters become
// the registry's "core.*" counters, cold decision builds are traced into
// the registry's decision ring, and hot/cold latency histograms are
// recorded. A nil registry is valid and leaves observability disabled.
func WithObs(reg *obs.Registry) MorpherOption {
	return func(m *Morpher) { m.reg = reg }
}

// WithSpliceDisabled turns the byte-level fast lane off: every delivery goes
// through the record lane, as before the splice optimization. Exists as an
// escape hatch and as the reference lane the differential tests and
// BenchmarkDeliverEncodedSplice compare the splice lane against.
func WithSpliceDisabled() MorpherOption {
	return func(m *Morpher) { m.noSplice = true }
}

// WithTracer attaches a tracer: DeliverEncodedCtx calls carrying a sampled
// trace context record per-stage spans (morph decision, lane choice, each
// transform step, conversion, handler invocation). A nil tracer is valid
// and leaves tracing disabled; untraced deliveries pay one branch per hook
// either way.
func WithTracer(t *trace.Tracer) MorpherOption {
	return func(m *Morpher) { m.tracer = t }
}

// TransformSource supplies out-of-band transformation meta-data for an
// incoming format no local transform chains off: given the format's
// fingerprint, it returns any transforms known elsewhere (the format
// registry) whose chains might reach a registered format, or nil. It is
// consulted on the cold decision path only — once per unknown fingerprint,
// before Algorithm 2 line 18 rejects the message — so it may block on I/O;
// the outcome (including the reject) is cached like any other decision.
//
// fresh asks the source to answer past its own caches. The engine first
// calls with fresh false, and only if that still left the format unroutable
// once more with fresh true — the last step before a reject is cached. The
// distinction matters because format fingerprints are structural: two
// generations of an evolving protocol can collide on one fingerprint, and a
// later registration then replaces the entry's transform set at the daemon
// while every cached copy (a registry client's LRU, fed by a watch stream
// the data frame can outrun) keeps the old one. A source that re-reads the
// daemon directly when asked closes that window; a source with no cache of
// its own may ignore the argument.
type TransformSource func(fp uint64, fresh bool) []*Xform

// WithTransformSource attaches an out-of-band transform source (a registry
// client): when MaxMatch finds no acceptable pair among locally known
// formats, the source's transforms for the incoming fingerprint are merged
// into the graph and the match is retried before rejecting. A nil source is
// valid and leaves the engine purely local.
func WithTransformSource(src TransformSource) MorpherOption {
	return func(m *Morpher) { m.xsource = src }
}

// NewMorpher returns a Morpher with the given thresholds. Use
// DefaultThresholds when in doubt; Thresholds{} (all zero) admits only
// perfect matches, as the paper prescribes for strict deployments.
func NewMorpher(th Thresholds, opts ...MorpherOption) *Morpher {
	m := &Morpher{
		th:     th,
		byFP:   make(map[uint64]*registration),
		xforms: make(map[uint64][]*Xform),
		cache:  make(map[uint64]*decision),
	}
	m.inputs.New = func() any { return new(pbio.Slab) }
	for _, o := range opts {
		o(m)
	}
	m.c = newMorphCounters(m.reg)
	m.hotHist = m.reg.Histogram("core.deliver_hot_ns") // nil on a nil registry, like the rest
	m.coldHist = m.reg.Histogram("core.decide_cold_ns")
	m.compileHist = m.reg.Histogram("core.compile_ns")
	return m
}

// RegisterFormat declares that the reader understands format f and wants
// matching messages delivered to handler. Registering a format with the
// same fingerprint again replaces its handler. Registration order matters
// for ties: earlier formats win equal MaxMatch scores.
func (m *Morpher) RegisterFormat(f *pbio.Format, handler Handler) error {
	if handler == nil {
		return errors.New("core: nil handler")
	}
	return m.register(f, &registration{format: f, handler: handler})
}

// RegisterFormatEncoded is RegisterFormat for byte-level consumers: matching
// messages reach handler as enveloped bytes of format f. Deliveries on the
// splice fast lane never materialize a Record on the way; record-lane
// deliveries (transformation chains, width-changing conversions, Deliver
// with an already-boxed record) encode the result before invoking handler.
// Registering the same fingerprint again replaces the handler in kind.
func (m *Morpher) RegisterFormatEncoded(f *pbio.Format, handler EncodedHandler) error {
	if handler == nil {
		return errors.New("core: nil handler")
	}
	return m.register(f, &registration{format: f, encHandler: handler})
}

func (m *Morpher) register(f *pbio.Format, reg *registration) error {
	if f == nil {
		return errors.New("core: nil format")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if existing, ok := m.byFP[f.Fingerprint()]; ok {
		existing.handler, existing.encHandler = reg.handler, reg.encHandler
		return nil
	}
	m.regs = append(m.regs, reg)
	m.byFP[f.Fingerprint()] = reg
	m.invalidateLocked()
	return nil
}

// SetWeigher installs field-importance weights for match decisions (the
// paper's §6 future-work extension): MaxMatch then sums importances instead
// of counting fields, against the same thresholds (Thresholds.Diff is read
// as a summed-importance cap). Pass nil to return to unweighted matching.
func (m *Morpher) SetWeigher(w Weigher) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.weigher = w
	m.invalidateLocked()
}

// SetDefaultHandler installs the handler invoked for messages no registered
// format matches. Records reach it in their original incoming format.
func (m *Morpher) SetDefaultHandler(h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.defaultHandler = h
	m.invalidateLocked()
}

// AddTransform registers transformation meta-data: an edge From → To in the
// retro-transformation graph (Figure 1). The code is compiled lazily, when
// a decision first needs it; Validate can be called eagerly by transports
// that distrust their peers.
func (m *Morpher) AddTransform(x *Xform) error {
	if x == nil || x.From == nil || x.To == nil {
		return errors.New("core: transform needs From and To formats")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	key := x.From.Fingerprint()
	for i, existing := range m.xforms[key] {
		if existing.To.Fingerprint() == x.To.Fingerprint() {
			if existing.Code == x.Code {
				return nil // identical refresh: keep cached decisions
			}
			// Refresh by replacing the edge, never by writing through it:
			// Xforms arrive from resolver caches that hand the same pointers
			// to every connection, so a mutation here would race with — and
			// rewrite — another morpher's concurrent compile of the same
			// transform.
			m.xforms[key][i] = x
			m.invalidateLocked()
			return nil
		}
	}
	m.xforms[key] = append(m.xforms[key], x)
	m.invalidateLocked()
	return nil
}

// importTransformsLocked merges externally sourced transforms into the
// graph (AddTransform's dedup, without re-locking), returning how many were
// new or refreshed. Malformed entries are skipped: registry contents must
// not be able to poison the local graph.
func (m *Morpher) importTransformsLocked(xs []*Xform) int {
	added := 0
next:
	for _, x := range xs {
		if x == nil || x.From == nil || x.To == nil {
			continue
		}
		key := x.From.Fingerprint()
		for _, existing := range m.xforms[key] {
			if existing.To.Fingerprint() == x.To.Fingerprint() {
				continue next
			}
		}
		m.xforms[key] = append(m.xforms[key], x)
		added++
	}
	return added
}

// invalidateLocked drops cached decisions; new registrations or transforms
// can change every match.
func (m *Morpher) invalidateLocked() {
	if len(m.cache) > 0 {
		m.cache = make(map[uint64]*decision)
	}
}

// Invalidate drops the cached decision for one incoming fingerprint, so the
// next message of that format re-runs the cold path. Transports hook this to
// metadata-change notifications (a registry watch event): a decision built
// before the metadata landed — in the worst case a reject, which no amount
// of subsequent traffic would otherwise revisit — heals instead of sticking
// for the connection's lifetime. Unknown fingerprints are a no-op.
func (m *Morpher) Invalidate(fp uint64) {
	m.mu.Lock()
	delete(m.cache, fp)
	m.mu.Unlock()
}

// Stats returns a snapshot of the engine's counters. The read order is
// fixed — every sub-counter before Delivered — so the snapshot never tears
// into an impossible state (see the Stats type documentation): a delivery
// increments Delivered first, hence reading Delivered last can only
// over-count it relative to the sub-counters, never under-count.
func (m *Morpher) Stats() Stats {
	s := Stats{
		CacheHits:    m.c.cacheHits.Load(),
		Compiled:     m.c.compiled.Load(),
		Transformed:  m.c.transformed.Load(),
		Converted:    m.c.converted.Load(),
		Rejected:     m.c.rejected.Load(),
		SpliceHits:   m.c.spliceHits.Load(),
		SpliceMisses: m.c.spliceMisses.Load(),
	}
	s.Delivered = m.c.delivered.Load()
	return s
}

// Deliver runs Algorithm 2 on rec: match (cached after the first message of
// a format), transform, fill/drop, and invoke the matched format's handler.
func (m *Morpher) Deliver(rec *pbio.Record) error {
	d, t0, err := m.admit(rec.Format(), trace.Context{}, func() (*pbio.Record, error) { return rec, nil })
	if d == nil {
		return err
	}
	m.c.spliceMisses.Inc()
	out, err := m.applyDecision(d, rec, nil, nil, trace.Context{})
	if err != nil {
		return err
	}
	err = d.reg.deliverRecord(out)
	m.observeHot(t0)
	return err
}

// admit is the prologue every delivery shares, boxed or encoded: count the
// message, decide (cached after a format's first message) under a
// morph_decide span, and dispose of a reject. A nil decision means the
// message is finished and err is its outcome — a decision error, or a reject,
// which goes to the default handler when one is installed and is ErrRejected
// otherwise (Algorithm 2 line 18). boxed yields the message as a record in its
// incoming format for the default handler.
//
// t0 is non-zero only for deliveries whose latency is recorded: with
// observability enabled, every hotSampleMask+1-th one served from the cache.
// With it disabled the extra cost is the nil-histogram branch.
func (m *Morpher) admit(wire *pbio.Format, tctx trace.Context, boxed func() (*pbio.Record, error)) (d *decision, t0 time.Time, err error) {
	n := m.c.delivered.Inc()
	if m.hotHist != nil && n&hotSampleMask == 1 {
		t0 = time.Now()
	}
	ds := m.tracer.StartSpan(tctx, trace.StageMorphDecide)
	d, hit, err := m.decide(wire)
	if ds.Recording() {
		ds.FP = wire.Fingerprint()
		ds.EndErr(err)
	}
	if err != nil {
		return nil, t0, err
	}
	if !hit {
		t0 = time.Time{}
	}
	if !d.reject {
		return d, t0, nil
	}
	m.c.rejected.Inc()
	m.mu.RLock()
	dh := m.defaultHandler
	m.mu.RUnlock()
	if dh == nil {
		return nil, t0, fmt.Errorf("%w: %q (%016x)", ErrRejected, wire.Name(), wire.Fingerprint())
	}
	rec, err := boxed()
	if err != nil {
		return nil, t0, err
	}
	return nil, t0, dh(rec)
}

// observeHot records one sampled cached-path delivery (see admit).
func (m *Morpher) observeHot(t0 time.Time) {
	if !t0.IsZero() {
		m.hotHist.ObserveNS(time.Since(t0).Nanoseconds())
	}
}

// DeliverEncoded delivers an enveloped message (whose wire format the
// transport looked up out-of-band) without necessarily decoding it.
//
// The cached decision is consulted first: identity decisions on
// fixed-stride formats pass the incoming bytes straight through (zero
// copies, zero allocations), and decisions whose whole plan compiled to a
// splice program are executed directly []byte → []byte with a single output
// allocation. Both count as core.splice_hits. Everything else — variable
// width formats, transformation chains, width-changing conversions — falls
// back to decode + record lane and counts as core.splice_misses. Boxed
// Handler registrations work on either lane via lazy decode.
func (m *Morpher) DeliverEncoded(data []byte, wire *pbio.Format) error {
	return m.DeliverEncodedCtx(data, wire, trace.Context{})
}

// DeliverEncodedCtx is DeliverEncoded with a trace context: when tctx is
// sampled and a tracer is attached, the morph decision, the lane taken
// (splice or record), transform steps and handler invocation are recorded
// as spans of tctx's trace. With tracing off (nil tracer or unsampled
// context) the only extra cost over DeliverEncoded is a branch per hook —
// the splice lane stays allocation-free.
func (m *Morpher) DeliverEncodedCtx(data []byte, wire *pbio.Format, tctx trace.Context) error {
	fp, err := pbio.PeekFingerprint(data)
	if err != nil {
		return err
	}
	if fp != wire.Fingerprint() {
		return fmt.Errorf("%w: message %016x, format %q is %016x",
			pbio.ErrFingerprint, fp, wire.Name(), wire.Fingerprint())
	}
	d, t0, err := m.admit(wire, tctx, func() (*pbio.Record, error) { return pbio.DecodeRecord(data, wire) })
	if d == nil {
		return err
	}

	// Byte lane: splice or fixed-stride identity pass-through. Length
	// validation is strict — a short (or long) payload is rejected before a
	// single byte is copied out of it.
	if d.splice != nil || d.passLen != 0 {
		ls := m.tracer.StartSpan(tctx, trace.StageLaneSplice)
		out := data
		if d.splice != nil {
			if out, err = d.splice.run(data); err != nil {
				ls.EndErr(err)
				return err
			}
		} else if len(data) != d.passLen {
			err = fmt.Errorf("%w: identity lane: %d payload bytes, fixed format %q needs %d",
				pbio.ErrShortMessage, len(data)-pbio.EnvelopeSize, wire.Name(), d.passLen-pbio.EnvelopeSize)
			ls.EndErr(err)
			return err
		}
		m.c.spliceHits.Inc()
		dv := m.tracer.StartSpan(ls.Context(), trace.StageDeliver)
		err = d.reg.deliverEncoded(out)
		dv.EndErr(err)
		ls.EndErr(err)
		m.observeHot(t0)
		return err
	}

	// Record lane: decode, transform/convert, deliver. Identity decisions
	// on variable-width formats hand encoded consumers the original bytes,
	// once the decoder has validated them through the plan that skips
	// every field.
	m.c.spliceMisses.Inc()
	ls := m.tracer.StartSpan(tctx, trace.StageLaneRecord)
	payload := data[pbio.EnvelopeSize:]
	var out *pbio.Record
	if d.identity && d.reg.encHandler != nil {
		_, err = d.skipAll.Decode(payload)
	} else {
		out, err = m.applyDecision(d, nil, payload, wire, ls.Context())
	}
	if err != nil {
		ls.EndErr(err)
		return err
	}
	dv := m.tracer.StartSpan(ls.Context(), trace.StageDeliver)
	if out == nil {
		err = d.reg.encHandler(data, d.reg.format)
	} else {
		err = d.reg.deliverRecord(out)
	}
	dv.EndErr(err)
	ls.EndErr(err)
	m.observeHot(t0)
	return err
}

// applyDecision runs the decision's transformation chain and conversion on
// rec, a record in the incoming format, or — rec nil — on payload, a
// payload of the incoming format wire. The first operation runs inside the
// decoder when it has a plan of its own (decision.first), under the span
// and counter it has when it runs on its own; otherwise the payload is
// decoded first. A payload that fails to decode fails with the decoder's
// error and counts nothing, as on a plain decode. tctx (the enclosing lane
// span's context, zero when untraced) parents the per-step and conversion
// spans.
//
// When the first operation is an Ecode program, the payload is decoded into
// a slab from m.inputs, rewound and returned once the chain has run: the
// program's output shares no record or list memory with its input
// (ecode.Program.Run), so no record the handler gets is carved from it.
func (m *Morpher) applyDecision(d *decision, rec *pbio.Record, payload []byte, wire *pbio.Format, tctx trace.Context) (*pbio.Record, error) {
	if rec == nil && d.first() == nil {
		var err error
		if len(d.steps) > 0 {
			s := m.inputs.Get().(*pbio.Slab)
			defer func() {
				s.Rewind()
				m.inputs.Put(s)
			}()
			rec, err = s.DecodePayload(payload, wire)
		} else {
			rec, err = pbio.DecodePayload(payload, wire)
		}
		if err != nil {
			return nil, err
		}
	}
	cur := rec
	for i := range d.steps {
		s := &d.steps[i]
		xs := m.tracer.StartSpan(tctx, trace.StageXformStep)
		dst, err := s.run(cur, payload)
		if err != nil && cur == nil && !errors.Is(err, ecode.ErrRuntime) {
			return nil, err // the payload did not decode: the span is dropped, no operation ran
		}
		if err != nil {
			from := wire
			if cur != nil {
				from = cur.Format()
			}
			xs.EndErr(err)
			return nil, fmt.Errorf("core: transformation step %d (%q→%q): %w",
				i, from.Name(), s.dst.Name(), err)
		}
		if xs.Recording() {
			xs.N = int64(i)
			xs.FP = s.dst.Fingerprint()
			xs.End()
		}
		cur = dst
	}
	if len(d.steps) > 0 {
		m.c.transformed.Inc()
	}
	if d.conv != nil {
		cs := m.tracer.StartSpan(tctx, trace.StageConvert)
		out, err := through(d.conv.Plan, cur, payload)
		if err != nil {
			return nil, err // the payload did not decode; a plan converts any record it was built for
		}
		cs.End()
		m.c.converted.Inc()
		cur = out
	}
	return cur, nil
}

// decide returns the cached decision for the incoming format, computing and
// caching it on first sight (the expensive steps 11–27 of Algorithm 2).
// hit reports whether the decision came from the cache.
func (m *Morpher) decide(fm *pbio.Format) (d *decision, hit bool, err error) {
	fp := fm.Fingerprint()
	m.mu.RLock()
	d, ok := m.cache[fp]
	m.mu.RUnlock()
	if ok {
		m.c.cacheHits.Inc()
		return d, true, nil
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if d, ok := m.cache[fp]; ok {
		m.c.cacheHits.Inc()
		return d, true, nil
	}
	var t0 time.Time
	if m.reg != nil {
		t0 = time.Now()
	}
	d, tr, err := m.buildDecisionLocked(fm)
	if m.reg != nil {
		m.coldHist.ObserveNS(time.Since(t0).Nanoseconds())
		tr.Format = fm.Name()
		tr.Fingerprint = fmt.Sprintf("%016x", fp)
		if err != nil {
			tr.Rejected = true
			tr.Reason = err.Error()
		}
		m.reg.RecordDecision(tr)
	}
	if err != nil {
		return nil, false, err
	}
	d.finalizeFastLane(m.noSplice)
	m.cache[fp] = d
	return d, false, nil
}

// buildDecisionLocked runs the expensive path of Algorithm 2 and reports
// what it decided as an obs.Decision trace entry (recorded only when a
// registry is attached; building it is cold-path noise otherwise).
func (m *Morpher) buildDecisionLocked(fm *pbio.Format) (*decision, obs.Decision, error) {
	var tr obs.Decision

	// Fast path: exact structure registered.
	if reg, ok := m.byFP[fm.Fingerprint()]; ok {
		tr.Candidates, tr.Registered = 1, 1
		tr.From, tr.To = fm.Name(), reg.format.Name()
		return &decision{reg: reg}, tr, nil
	}

	// Fr: registered formats with the same name as fm.
	var fr []*pbio.Format
	for _, reg := range m.regs {
		if reg.format.Name() == fm.Name() {
			fr = append(fr, reg.format)
		}
	}
	tr.Candidates, tr.Registered = 1, len(fr)

	// Line 11: try the incoming format alone, accepting only a perfect pair.
	if match, ok := MaxMatch([]*pbio.Format{fm}, fr, m.th, m.weigher); ok && match.IsPerfect() {
		d, err := m.finishDecisionLocked(nil, match, &tr)
		return d, tr, err
	}

	// Line 16: consider everything fm can be transformed into.
	var chains []chain
	matchChains := func() (Match, bool) {
		chains = m.reachableLocked(fm)
		ft := make([]*pbio.Format, len(chains))
		for i, ch := range chains {
			ft[i] = ch.format
		}
		tr.Candidates = len(ft)
		return MaxMatch(ft, fr, m.th, m.weigher)
	}
	match, ok := matchChains()
	for _, fresh := range [...]bool{false, true} {
		if ok || m.xsource == nil {
			break
		}
		// Line 16, extended: before rejecting, pull transform meta-data the
		// registry holds for this fingerprint — chains a peer published that
		// never crossed this connection — and retry the match. The second
		// pass repeats the pull past the source's caches (see
		// TransformSource), for the case where the cached entry is a stale
		// copy of a fingerprint a later protocol generation reused.
		if m.importTransformsLocked(m.xsource(fm.Fingerprint(), fresh)) > 0 {
			match, ok = matchChains()
		}
	}
	if !ok {
		tr.Rejected = true
		tr.Reason = "no candidate pair within thresholds"
		return &decision{reject: true}, tr, nil
	}

	var path []*Xform
	for _, ch := range chains {
		if ch.format == match.From {
			path = ch.path
			break
		}
	}
	d, err := m.finishDecisionLocked(path, match, &tr)
	return d, tr, err
}

// finishDecisionLocked compiles the chosen chain, lowering each step that
// only moves fields to a conversion plan, and builds the fill/drop converter
// if the matched pair is not structure-identical.
func (m *Morpher) finishDecisionLocked(path []*Xform, match Match, tr *obs.Decision) (*decision, error) {
	tr.From, tr.To = match.From.Name(), match.To.Name()
	tr.Diff, tr.Mismatch = match.Diff, match.Mismatch
	tr.ChainLen = len(path)
	d := &decision{reg: m.byFP[match.To.Fingerprint()]}
	if d.reg == nil {
		// match.To always comes from m.regs; this guards internal drift.
		return nil, fmt.Errorf("core: matched format %q is not registered", match.To.Name())
	}
	for _, x := range path {
		var ct0 time.Time
		if m.reg != nil {
			ct0 = time.Now()
		}
		prog, err := x.compile()
		if m.reg != nil {
			ns := time.Since(ct0).Nanoseconds()
			tr.CompileNS += ns
			m.compileHist.ObserveNS(ns)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %q→%q: %v", ErrBadTransform, x.From.Name(), x.To.Name(), err)
		}
		m.c.compiled.Inc()
		s := step{prog: prog, dst: x.To}
		if moves, ok := prog.FieldMap(); ok {
			if plan, err := newMovePlan(x.From, x.To, moves); err == nil {
				s = step{plan: plan, dst: x.To}
			}
		}
		d.steps = append(d.steps, s)
	}
	if !match.From.SameStructure(match.To) {
		d.conv = NewConverter(match.From, match.To)
	}
	return d, nil
}

// chain is a format reachable from the incoming one plus the transform path
// that reaches it.
type chain struct {
	format *pbio.Format
	path   []*Xform
}

// maxChainDepth bounds retro-transformation chains; realistic format
// histories are short, and the bound keeps adversarial transform graphs
// from exploding the search.
const maxChainDepth = 8

// reachableLocked returns fm plus every format reachable through registered
// transforms, breadth-first, so the shortest chain to any format is found
// first. The identity chain is first, biasing MaxMatch ties toward
// "no transformation".
func (m *Morpher) reachableLocked(fm *pbio.Format) []chain {
	visited := map[uint64]bool{fm.Fingerprint(): true}
	out := []chain{{format: fm}}
	frontier := out
	for depth := 0; depth < maxChainDepth && len(frontier) > 0; depth++ {
		var next []chain
		for _, ch := range frontier {
			for _, x := range m.xforms[ch.format.Fingerprint()] {
				fp := x.To.Fingerprint()
				if visited[fp] {
					continue
				}
				visited[fp] = true
				path := make([]*Xform, len(ch.path)+1)
				copy(path, ch.path)
				path[len(ch.path)] = x
				nc := chain{format: x.To, path: path}
				out = append(out, nc)
				next = append(next, nc)
			}
		}
		frontier = next
	}
	return out
}

// Explanation describes how the Morpher would treat a format — the
// diagnostic counterpart of decide, for tooling.
type Explanation struct {
	Rejected  bool
	Target    *pbio.Format // registered format messages are delivered as
	ChainLen  int          // transformation steps applied
	Lowered   int          // of those, steps that only move fields (Figure 5 among them) and run as conversion plans
	Perfect   bool         // no fill/drop needed after the chain
	Defaulted []string     // target fields filled with defaults
	Dropped   []string     // incoming fields discarded
}

// Explain reports the delivery plan for a format without delivering
// anything. It populates the decision cache as a side effect.
func (m *Morpher) Explain(fm *pbio.Format) (Explanation, error) {
	d, _, err := m.decide(fm)
	if err != nil {
		return Explanation{}, err
	}
	if d.reject {
		return Explanation{Rejected: true}, nil
	}
	e := Explanation{
		Target:   d.reg.format,
		ChainLen: len(d.steps),
		Perfect:  d.conv == nil,
	}
	for _, s := range d.steps {
		if s.plan != nil {
			e.Lowered++
		}
	}
	if d.conv != nil {
		e.Defaulted = d.conv.Defaulted()
		e.Dropped = d.conv.Dropped()
	}
	return e, nil
}
