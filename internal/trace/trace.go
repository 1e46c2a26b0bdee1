// Package trace is the reproduction's distributed-tracing layer: it answers
// "where did message X spend its time" once a message crosses a wire.Conn
// into the event domain and out to N subscribers, which the per-process
// metrics of internal/obs cannot.
//
// The design follows the same out-of-band discipline as the paper's format
// meta-data: the trace context (a 16-byte trace ID, an 8-byte span ID and a
// sampled bit — 25 bytes total) rides the wire in its own control frame
// immediately preceding the data frame it describes, emitted only for
// sampled messages, and tolerated-and-skipped by receivers that have
// tracing off. Within a process, instrumented stages (encode, frame write,
// frame read, fan-out, morph decision, lane choice, transform steps,
// handler delivery) record fixed-size SpanRecords into a lock-free bounded
// ring.
//
// Cost discipline mirrors internal/obs:
//
//   - A nil *Tracer is a valid no-op: every method returns a zero Span whose
//     End is free, so components built without tracing pay one predictable
//     nil check per hook and allocate nothing.
//   - Unsampled traffic is no different: StartSpan on an unsampled Context
//     returns the zero Span. Only head-sampled traces (decided once per
//     trace at StartTrace, honored downstream via the sampled bit) pay for
//     clock reads and ring writes.
//   - Span is a value type; recording allocates exactly one SpanRecord per
//     completed sampled span.
package trace

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/ring"
)

// TraceID identifies one end-to-end message journey (publisher → server →
// every sink). It is generated at the trace root and never changes as the
// context crosses processes.
type TraceID [16]byte

// SpanID identifies one stage of a trace within one process.
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as lowercase hex.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is unset.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as lowercase hex.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// Context is the trace state that crosses process boundaries: which trace a
// message belongs to, which span is its parent on the sending side, and
// whether the trace is sampled. The zero Context is "not traced" and makes
// every downstream tracing hook a no-op.
type Context struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether the context carries a real trace ID.
func (c Context) Valid() bool { return !c.Trace.IsZero() }

// ContextWireSize is the encoded size of a Context in a frameTrace control
// frame body: 16 trace ID bytes + 8 span ID bytes + 1 flags byte.
const ContextWireSize = 25

// ErrBadContext is returned by ParseWire for malformed context bodies.
var ErrBadContext = errors.New("trace: malformed trace context")

// AppendWire appends the 25-byte wire encoding of c to dst.
func (c Context) AppendWire(dst []byte) []byte {
	dst = append(dst, c.Trace[:]...)
	dst = append(dst, c.Span[:]...)
	var flags byte
	if c.Sampled {
		flags |= 1
	}
	return append(dst, flags)
}

// ParseWire decodes a Context from a frameTrace body. The body must be
// exactly ContextWireSize bytes and carry a nonzero trace ID; undefined
// flag bits are ignored (reserved for evolution).
func ParseWire(b []byte) (Context, error) {
	if len(b) != ContextWireSize {
		return Context{}, ErrBadContext
	}
	var c Context
	copy(c.Trace[:], b[:16])
	copy(c.Span[:], b[16:24])
	c.Sampled = b[24]&1 != 0
	if !c.Valid() {
		return Context{}, ErrBadContext
	}
	return c, nil
}

// Stage names the instrumented steps of a message's journey. The set covers
// one full publish: client-side encode and frame write, the server's frame
// read and fan-out, and each sink's frame read, morph decision, lane
// execution and handler delivery.
type Stage uint8

// Span stages, in rough journey order.
const (
	StageUnknown     Stage = iota
	StagePublish           // root: one client Publish call
	StageEncode            // record → bytes on the sending side
	StageFrameWrite        // frame write into the connection's buffer (the flush is per batch, outside the span)
	StageFrameRead         // receiving the data frame announced by a trace frame
	StageFanout            // one event-domain fan-out pass over all sinks
	StageMorphDecide       // Morpher decision (cache hit or Algorithm 2 build)
	StageLaneSplice        // byte-level lane: splice program or identity pass-through
	StageLaneRecord        // record lane: decode + transform/convert
	StageXformStep         // one transformation-chain step (N = step index)
	StageConvert           // name-wise fill/drop conversion
	StageDeliver           // handler invocation

	// StageRegistryFetch and StageRegistryWatch are reserved: nothing emits
	// them (the registry client takes no tracer), but the numbering is
	// observable in span dumps and must stay stable. New stages are appended
	// below.
	StageRegistryFetch
	StageRegistryWatch
)

var stageNames = [...]string{
	StageUnknown:     "unknown",
	StagePublish:     "publish",
	StageEncode:      "encode",
	StageFrameWrite:  "frame_write",
	StageFrameRead:   "frame_read",
	StageFanout:      "fanout",
	StageMorphDecide: "morph_decide",
	StageLaneSplice:  "lane_splice",
	StageLaneRecord:  "lane_record",
	StageXformStep:   "xform_step",
	StageConvert:     "convert",
	StageDeliver:     "deliver",

	StageRegistryFetch: "registry_fetch",
	StageRegistryWatch: "registry_watch",
}

// String returns the stage's snake_case name ("unknown" for out-of-range
// values).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// SpanRecord is one completed span as retained by the ring. All fields are
// fixed-size so recording never allocates beyond the record itself.
type SpanRecord struct {
	Seq     uint64 // 1-based ring sequence, monotonic per tracer
	Trace   TraceID
	Span    SpanID
	Parent  SpanID // zero for roots and for spans parented in another process
	Stage   Stage
	Err     bool
	StartNS int64 // unix nanoseconds
	DurNS   int64
	FP      uint64 // format fingerprint attribute (0 = unset)
	N       int64  // stage-specific magnitude: bytes, step index, sink count
}

// Config tunes a Tracer.
type Config struct {
	// Capacity bounds the span ring (default DefaultCapacity, minimum 1).
	Capacity int

	// SampleEvery is the head-sampling rate: StartTrace keeps one in
	// SampleEvery new traces (default 1 = every trace). The decision is made
	// once at the root; downstream processes honor the context's sampled
	// bit regardless of their own rate.
	SampleEvery uint64

	// SlowNS is the tail-retention threshold: completed spans at least this
	// slow, or marked failed, are additionally kept in a secondary tail ring
	// (capacity Capacity/4, minimum 1) that routine fast traffic cannot
	// evict. That biases the bounded retention toward exactly the spans an
	// operator chasing a p99 spike or an error burst needs — under load the
	// main ring churns in milliseconds, but the slow outlier that produced a
	// /metrics exemplar survives long enough to be fetched from
	// /debug/tracez. 0 means DefaultSlowNS; negative retains only failed
	// spans.
	SlowNS int64

	// Obs optionally attaches the tracer's self-metrics to an obs registry:
	// the "trace.spans_dropped" counter tracks main-ring overwrites, so a
	// ring sized below its traffic shows up on /metrics instead of silently
	// forgetting spans. A nil registry is a valid no-op.
	Obs *obs.Registry
}

// DefaultCapacity is the span ring capacity used when Config.Capacity is 0.
const DefaultCapacity = 4096

// DefaultSlowNS is the tail-retention threshold used when Config.SlowNS is
// 0: spans of 1ms or slower are presumptively interesting on a fan-out path
// whose healthy latencies are tens of microseconds.
const DefaultSlowNS = int64(time.Millisecond)

// SpansDroppedMetric is the obs counter name tracking main-ring overwrites.
const SpansDroppedMetric = "trace.spans_dropped"

// Tracer owns a span ring and the sampling/ID state. All methods are safe
// for concurrent use; all are no-ops on a nil receiver, so components take
// a *Tracer option and never check it.
type Tracer struct {
	ring        *ring.Ring[SpanRecord]
	tail        *ring.Ring[SpanRecord] // slow/error spans, immune to fast-traffic churn
	onDrop      *obs.Counter           // registry mirror of ring.Dropped (nil-safe)
	slowNS      int64
	sampleEvery uint64
	seed        uint64
	roots       atomic.Uint64 // StartTrace calls, sampled or not (head counter)
	ids         atomic.Uint64 // ID sequence fed through splitmix64
}

// New returns a Tracer with the given configuration.
func New(cfg Config) *Tracer {
	if cfg.Capacity < 1 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	if cfg.SlowNS == 0 {
		cfg.SlowNS = DefaultSlowNS
	}
	tailCap := cfg.Capacity / 4
	if tailCap < 1 {
		tailCap = 1
	}
	t := &Tracer{
		ring:        ring.New(cfg.Capacity, spanSeq),
		tail:        ring.New(tailCap, spanSeq),
		onDrop:      cfg.Obs.Counter(SpansDroppedMetric),
		slowNS:      cfg.SlowNS,
		sampleEvery: cfg.SampleEvery,
		seed:        uint64(time.Now().UnixNano())*0x9E3779B97F4A7C15 | 1,
	}
	return t
}

func spanSeq(r *SpanRecord) *uint64 { return &r.Seq }

// Enabled reports whether the tracer records anything at all; it is the
// one-branch guard hot paths use before building spans.
func (t *Tracer) Enabled() bool { return t != nil }

// nextID draws a unique nonzero 64-bit ID: splitmix64 over an atomic
// sequence, seeded per tracer. Lock-free, allocation-free, and unique
// within a tracer by construction (distinct inputs → distinct outputs,
// splitmix64 is a bijection).
func (t *Tracer) nextID() uint64 {
	x := t.seed + t.ids.Add(1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// Span is one in-flight stage measurement. The zero Span (from a nil
// tracer, an unsampled trace, or a head-sampling miss) is inert: all
// methods are no-ops and Context returns the zero Context. Set FP/N/Err
// before End; they are recorded with the span.
type Span struct {
	t      *Tracer
	ctx    Context
	parent SpanID
	stage  Stage
	start  int64

	// FP is an optional format-fingerprint attribute.
	FP uint64
	// N is an optional stage-specific magnitude (bytes, step index, sinks).
	N int64
	// Err marks the measured operation as failed.
	Err bool
}

// StartTrace begins a new trace rooted at stage, applying head sampling:
// a sampling miss (or nil tracer) returns the zero Span, whose zero
// Context keeps every downstream hook inert.
func (t *Tracer) StartTrace(stage Stage) Span {
	if t == nil {
		return Span{}
	}
	if n := t.roots.Add(1); (n-1)%t.sampleEvery != 0 {
		return Span{}
	}
	var ctx Context
	binary.LittleEndian.PutUint64(ctx.Trace[:8], t.nextID())
	binary.LittleEndian.PutUint64(ctx.Trace[8:], t.nextID())
	binary.LittleEndian.PutUint64(ctx.Span[:], t.nextID())
	ctx.Sampled = true
	return Span{t: t, ctx: ctx, stage: stage, start: time.Now().UnixNano()}
}

// StartSpan begins a child span of parent (typically a context received
// from the wire or another Span's Context). Unsampled or invalid parents
// yield the zero Span.
func (t *Tracer) StartSpan(parent Context, stage Stage) Span {
	if t == nil || !parent.Sampled || !parent.Valid() {
		return Span{}
	}
	ctx := Context{Trace: parent.Trace, Sampled: true}
	binary.LittleEndian.PutUint64(ctx.Span[:], t.nextID())
	return Span{t: t, ctx: ctx, parent: parent.Span, stage: stage, start: time.Now().UnixNano()}
}

// Recording reports whether End will record anything — use it to skip
// attribute computation for inert spans.
func (s *Span) Recording() bool { return s.t != nil }

// Context returns the span's own context, the parent for child spans and
// the value to propagate across the wire so remote spans nest beneath this
// one. Zero for inert spans.
func (s Span) Context() Context { return s.ctx }

// End records the span into the tracer's ring. Slow (≥ Config.SlowNS) and
// failed spans are additionally retained in the tail ring, where fast
// traffic cannot evict them. Safe to call on inert spans; a second End is a
// no-op.
func (s *Span) End() {
	if s.t == nil {
		return
	}
	rec := &SpanRecord{
		Trace:   s.ctx.Trace,
		Span:    s.ctx.Span,
		Parent:  s.parent,
		Stage:   s.stage,
		Err:     s.Err,
		StartNS: s.start,
		DurNS:   time.Now().UnixNano() - s.start,
		FP:      s.FP,
		N:       s.N,
	}
	if s.t.ring.Put(rec) {
		s.t.onDrop.Inc()
	}
	// Tail retention does not count what it displaces as dropped: the span
	// already had its main-ring residency, and the counter answers "how many
	// spans vanished unseen".
	if rec.Err || (s.t.slowNS >= 0 && rec.DurNS >= s.t.slowNS) {
		s.t.tail.Keep(rec)
	}
	s.t = nil
}

// EndErr marks the span failed if err is non-nil, then Ends it.
func (s *Span) EndErr(err error) {
	if err != nil {
		s.Err = true
	}
	s.End()
}

// Total returns how many spans were ever recorded (≥ len(Snapshot())).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.Total()
}

// Dropped returns how many retained spans the main ring overwrote before a
// snapshot saw them. A steadily climbing value means the ring is sized
// below its traffic (raise Config.Capacity or Config.SampleEvery); the
// tail ring may still hold the slow/error subset of the overwritten spans.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.Dropped()
}

// Snapshot returns the retained spans — the main ring merged with the
// slow/error tail ring, deduplicated by sequence number — oldest first.
// Once more than Capacity spans have been recorded it therefore holds
// between Capacity and Capacity + Capacity/4 records: the newest Capacity
// spans plus whatever older slow/error spans the tail ring still keeps.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	main := t.ring.Snapshot()
	tail := t.tail.Snapshot()
	if len(tail) == 0 {
		return main
	}
	seen := make(map[uint64]bool, len(main))
	for _, r := range main {
		seen[r.Seq] = true
	}
	for _, r := range tail {
		if !seen[r.Seq] {
			main = append(main, r)
		}
	}
	sort.Slice(main, func(i, j int) bool { return main[i].Seq < main[j].Seq })
	return main
}
