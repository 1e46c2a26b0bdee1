// Package wire frames PBIO messages over a byte stream and ships format
// meta-data out-of-band, the transport role PBIO's connection manager plays
// in the paper.
//
// The first time a connection sends a record of some format, a control
// frame carrying the serialized format description — and any transformation
// code associated with it — precedes the data frame. Receivers cache the
// description, feed the transformations to their Morpher, and from then on
// every message of that format costs only its 8-byte fingerprint in
// meta-data. This is what the paper means by "out-of-band, binary
// meta-data": the per-message overhead stays constant while evolution
// information still reaches every receiver, with no negotiation round-trips
// (the sender never waits to learn what the receiver understands).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/trace"
)

// Frame types. Everything except frameData is a control frame; receivers
// skip well-formed control frames of kinds they do not implement (counting
// them as UnknownFrames), so new out-of-band meta-data — like the trace
// context introduced as kind 3 — never breaks older peers.
const (
	frameFormat    byte = 1 // body: format blob + associated transform blobs
	frameData      byte = 2 // body: enveloped record (fingerprint + payload)
	frameTrace     byte = 3 // body: 25-byte trace context for the next data frame
	frameFormatReq byte = 4 // body: 8-byte fingerprint — "re-announce this format in-band"
)

// FrameRegistry is the control-frame kind carrying format-registry RPCs
// (internal/registry). Kinds below MinCustomFrame are reserved by the wire
// layer itself; subsystems layering their own out-of-band protocols on this
// framing use WriteControl/WithControlHook with kinds from MinCustomFrame up.
const (
	MinCustomFrame byte = 5
	FrameRegistry  byte = 5

	// FrameCapture carried the records of version-1 .morphcap capture files
	// (internal/tap). Version 2 writes captures as ordinary data frames; the
	// kind stays reserved so a reader can recognise, and refuse, a version-1
	// file.
	FrameCapture byte = 6
)

// Exported aliases for the reserved frame kinds, for consumers that inspect
// frames from the outside (the tap flight recorder and its decoder) without
// being able to emit them.
const (
	KindFormat    byte = frameFormat
	KindData      byte = frameData
	KindTrace     byte = frameTrace
	KindFormatReq byte = frameFormatReq
)

// FrameKindName names a frame kind for human-facing output (tapz, morphtap).
func FrameKindName(k byte) string {
	switch k {
	case frameFormat:
		return "format"
	case frameData:
		return "data"
	case frameTrace:
		return "trace"
	case frameFormatReq:
		return "format_req"
	case FrameRegistry:
		return "registry"
	case FrameCapture:
		return "capture"
	default:
		return fmt.Sprintf("kind_%d", k)
	}
}

// ParseFrameKind is FrameKindName's inverse, for filters that name a kind
// (tapz kind=, morphtap -kind): a kind name, case-insensitively ("formatreq"
// also names format_req), or the byte itself as "kind_N" or plain "N".
func ParseFrameKind(s string) (byte, error) {
	name := strings.ToLower(s)
	if name == "formatreq" {
		name = "format_req"
	}
	for _, k := range []byte{frameFormat, frameData, frameTrace, frameFormatReq, FrameRegistry, FrameCapture} {
		if FrameKindName(k) == name {
			return k, nil
		}
	}
	n, err := strconv.ParseUint(strings.TrimPrefix(name, "kind_"), 10, 8)
	if err != nil {
		return 0, fmt.Errorf("bad kind %q: want a kind name or numeric byte", s)
	}
	return byte(n), nil
}

// TapDir is the direction of a captured frame relative to the tapped
// connection.
type TapDir uint8

const (
	TapRead  TapDir = 0 // frame arrived from the peer
	TapWrite TapDir = 1 // frame was sent to the peer
)

// String returns "read" or "write".
func (d TapDir) String() string {
	if d == TapWrite {
		return "write"
	}
	return "read"
}

// FrameTap observes every frame a connection reads or writes — the hook the
// flight recorder (internal/tap) hangs off the framing layer. body aliases
// wire-owned memory valid only for the duration of the call; tctx is the
// trace context riding with a data frame (zero otherwise). CaptureFrame is
// invoked under the connection's write lock on the write side and from the
// read goroutine on the read side, so a given direction is never reentered
// concurrently, but the two directions may overlap.
//
// ArmedFlag exposes the tap's armed state, read once when the tap is
// attached: the connection decides "capture or not" with one direct atomic
// load per frame instead of an interface call with a trace context copied
// into its arguments. This is what keeps the disarmed hook inside its floor:
// <2% on the splice lane and 0 allocations. A nil flag attaches nothing.
type FrameTap interface {
	CaptureFrame(dir TapDir, kind byte, body []byte, tctx trace.Context)
	ArmedFlag() *atomic.Bool
}

// DefaultMaxFrame bounds incoming frame bodies; a peer cannot force an
// arbitrary allocation with a forged length header.
const DefaultMaxFrame = 64 << 20

// Wire errors.
var (
	// ErrUnknownFormat is returned when a data frame references a
	// fingerprint no format control frame has announced.
	ErrUnknownFormat = errors.New("wire: data frame for unannounced format")

	// ErrFrameTooLarge is returned when a frame header exceeds the
	// connection's limit.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

	// ErrBadFrame is wrapped by malformed-frame errors.
	ErrBadFrame = errors.New("wire: malformed frame")

	// ErrReservedFrame is returned by WriteControl for frame kinds the wire
	// layer reserves for itself.
	ErrReservedFrame = errors.New("wire: reserved control frame kind")
)

// FormatResolver resolves a fingerprint to its full format description and
// associated transformation meta-data from an out-of-band source (the format
// registry of internal/registry). A resolver is consulted when a data frame
// references a fingerprint no format control frame has announced — the
// paper's third-party format-server role. Resolution failures are not fatal:
// the connection falls back to requesting an in-band re-announcement from
// the peer (frameFormatReq), so a down registry degrades to today's in-band
// exchange.
type FormatResolver interface {
	ResolveFormat(fp uint64) (*pbio.Format, []*core.Xform, error)
}

// Stream is the byte transport a Conn runs over: a net.Conn, one end of a
// net.Pipe, or any file-like duplex (the spool package frames messages into
// ordinary files through this interface).
type Stream interface {
	io.Reader
	io.Writer
	io.Closer
}

// Conn is a message-oriented connection. Writes are safe for concurrent
// use; ReadRecord must be called from a single goroutine (the usual receive
// loop).
type Conn struct {
	nc         Stream
	maxFrame   int
	morpher    *core.Morpher
	formatHook func(*pbio.Format, []*core.Xform)
	tracer     *trace.Tracer
	resolver   FormatResolver
	suppress   func(*pbio.Format) bool
	hooks      map[byte]func(body []byte) error
	tap        FrameTap     // flight-recorder hook; nil unless WithFrameTap
	tapArmed   *atomic.Bool // the tap's armed flag; hoists the disarmed gate

	wmu       sync.Mutex
	bw        *bufio.Writer
	whdr      [binary.MaxVarintLen64 + 1]byte // frame header scratch; avoids a per-frame escape
	sent      map[uint64]bool
	declared  map[uint64][]*core.Xform
	announced map[uint64]*pbio.Format // formats sent (or suppressed) on this conn, for re-announcement

	br          *bufio.Reader
	recvFormats map[uint64]*pbio.Format
	held        *[]byte // pooled frame body in flight; recycled on the next read

	// Parked data frames (read side, single goroutine): frames whose
	// fingerprint neither the format cache nor the resolver could name, held
	// until the peer answers our frameFormatReq with an in-band format frame.
	parked      []parkedFrame
	parkedBytes int
	requested   map[uint64]bool // fingerprints we have asked the peer to re-announce

	// Read-side trace state (single-goroutine, like br): pending is the
	// context announced by the most recent frameTrace frame, waiting for
	// its data frame; rctx is the context attached to the last data frame
	// returned; rspan times the announced frame's arrival when this side
	// traces too.
	pending trace.Context
	rctx    trace.Context
	rspan   trace.Span

	// stats is the connection's one counter set: Stats() reads the per-conn
	// atomics, and WithObs binds each counter's shared side to the
	// registry-wide "wire.*" series (see counter). formatNS is nil unless
	// WithObs attached a registry.
	stats struct {
		dataSent, dataRecv           counter // data frames
		formatSent, formatRecv       counter // format control frames
		traceSent, traceRecv         counter // trace context control frames
		ctrlSent, ctrlRecv           counter // custom control frames (WriteControl / hooked kinds)
		bytesSent, bytesRecv         counter // frame bodies incl. headers
		formatErrors                 counter // malformed format control frames
		corruptFrames                counter // malformed frame headers/bodies
		oversizedFrames              counter // frames over the size limit
		unknownFrames                counter // well-formed control frames of unknown kind, skipped
		formatsSuppressed            counter // format frames skipped because the registry resolves them
		formatsResolved              counter // unknown fingerprints resolved out-of-band by the resolver
		formatReqSent, formatReqRecv counter // frameFormatReq frames sent / received
		parkedFrames                 counter // data frames parked awaiting re-announcement (per-conn only)
		rejectedDeliveries           counter // Serve deliveries the Morpher rejected (per-conn only)
	}
	obs      *obs.Registry
	formatNS *obs.Histogram // format control frame handling time
}

// counter is one frame counter of a connection: its own atomic, which Stats
// reads, plus — when WithObs bound a registry — the shared series every
// connection on that registry adds to. One add bumps both, so the per-conn
// and registry-wide views cannot drift apart; shared is nil-safe, so an
// unobserved connection pays one predictable branch.
type counter struct {
	n      atomic.Uint64
	shared *obs.Counter
}

func (k *counter) add(d uint64) {
	k.n.Add(d)
	k.shared.Add(d)
}

func (k *counter) inc() { k.add(1) }

// parkedFrame is a data frame held back because its format is not yet known:
// the body is a private copy (the pooled frame buffer cannot outlive the next
// read), tctx is the trace context that was announced for it.
type parkedFrame struct {
	fp   uint64
	body []byte
	tctx trace.Context
}

// Stats is a snapshot of a connection's frame counters. The format counters
// make the out-of-band design visible: in steady state they stay constant
// while the data counters grow. The error counters surface hostile or
// corrupt input: malformed format control frames (FormatErrors), malformed
// frame headers/bodies (CorruptFrames), and frames rejected by the size
// limit (OversizedFrames).
type Stats struct {
	DataFramesSent     uint64
	DataFramesRecv     uint64
	FormatFramesSent   uint64
	FormatFramesRecv   uint64
	TraceFramesSent    uint64
	TraceFramesRecv    uint64
	ControlFramesSent  uint64 // custom control frames (WriteControl)
	ControlFramesRecv  uint64 // custom control frames dispatched to a hook
	BytesSent          uint64
	BytesRecv          uint64
	FormatErrors       uint64
	CorruptFrames      uint64
	OversizedFrames    uint64
	UnknownFrames      uint64 // well-formed control frames of unknown kind, skipped
	FormatsSuppressed  uint64 // format frames skipped: the peer resolves them from the registry
	FormatsResolved    uint64 // unknown fingerprints resolved via the attached FormatResolver
	FormatReqsSent     uint64 // re-announcement requests sent after a resolver miss
	FormatReqsRecv     uint64 // re-announcement requests answered with an in-band format frame
	ParkedFrames       uint64 // data frames parked while awaiting re-announcement
	RejectedDeliveries uint64 // Serve deliveries the Morpher rejected (the connection stays up)
}

// Stats returns the connection's counters.
func (c *Conn) Stats() Stats {
	return Stats{
		DataFramesSent:     c.stats.dataSent.n.Load(),
		DataFramesRecv:     c.stats.dataRecv.n.Load(),
		FormatFramesSent:   c.stats.formatSent.n.Load(),
		FormatFramesRecv:   c.stats.formatRecv.n.Load(),
		TraceFramesSent:    c.stats.traceSent.n.Load(),
		TraceFramesRecv:    c.stats.traceRecv.n.Load(),
		ControlFramesSent:  c.stats.ctrlSent.n.Load(),
		ControlFramesRecv:  c.stats.ctrlRecv.n.Load(),
		BytesSent:          c.stats.bytesSent.n.Load(),
		BytesRecv:          c.stats.bytesRecv.n.Load(),
		FormatErrors:       c.stats.formatErrors.n.Load(),
		CorruptFrames:      c.stats.corruptFrames.n.Load(),
		OversizedFrames:    c.stats.oversizedFrames.n.Load(),
		UnknownFrames:      c.stats.unknownFrames.n.Load(),
		FormatsSuppressed:  c.stats.formatsSuppressed.n.Load(),
		FormatsResolved:    c.stats.formatsResolved.n.Load(),
		FormatReqsSent:     c.stats.formatReqSent.n.Load(),
		FormatReqsRecv:     c.stats.formatReqRecv.n.Load(),
		ParkedFrames:       c.stats.parkedFrames.n.Load(),
		RejectedDeliveries: c.stats.rejectedDeliveries.n.Load(),
	}
}

// Morpher returns the morphing engine attached with WithMorpher, or nil.
func (c *Conn) Morpher() *core.Morpher { return c.morpher }

// TraceContext returns the trace context attached to the most recent data
// frame returned by ReadRecord/ReadEncoded: the announced wire context, or
// — when this connection traces — the context of its own frame_read span,
// so downstream spans nest beneath it. The zero Context means the message
// was untraced. Like the read methods, it must be called from the read
// goroutine.
func (c *Conn) TraceContext() trace.Context { return c.rctx }

// Option configures a Conn.
type Option func(*Conn)

// WithMorpher attaches a morphing engine: transformations arriving in
// format control frames are registered with it, and Serve delivers through
// it.
func WithMorpher(m *core.Morpher) Option {
	return func(c *Conn) { c.morpher = m }
}

// WithMaxFrame overrides the incoming frame size limit. Non-positive values
// fall back to DefaultMaxFrame: the limit is a safety boundary against forged
// length headers, so it can be tightened but never accidentally disabled.
func WithMaxFrame(n int) Option {
	return func(c *Conn) {
		if n <= 0 {
			n = DefaultMaxFrame
		}
		c.maxFrame = n
	}
}

// WithResolver attaches an out-of-band format resolver (a registry client):
// data frames whose fingerprint no format frame announced are resolved
// through it before the connection gives up. On resolver failure the frame is
// parked and the peer is asked (frameFormatReq) to re-announce the format
// in-band — the graceful-degradation path that keeps a dead registry from
// losing messages. A nil resolver is valid and leaves resolution disabled.
func WithResolver(r FormatResolver) Option {
	return func(c *Conn) { c.resolver = r }
}

// WithFormatSuppressor installs the send-side half of registry-backed format
// distribution: when the predicate reports that the peer can resolve a
// format's fingerprint out-of-band (because this process registered it with
// the shared registry), the in-band format control frame is skipped and only
// the 8-byte fingerprint ever crosses the wire. The format is still
// remembered so a peer whose resolution fails can demand an in-band
// re-announcement. A nil predicate is valid and suppresses nothing.
func WithFormatSuppressor(fn func(*pbio.Format) bool) Option {
	return func(c *Conn) { c.suppress = fn }
}

// WithControlHook routes incoming control frames of a custom kind
// (MinCustomFrame or above) to hook instead of the unknown-frame skip path.
// The body aliases a pooled frame buffer valid only for the duration of the
// call. A hook error tears the connection down, like any frame error. The
// registry subsystem layers its RPC protocol on this.
func WithControlHook(kind byte, hook func(body []byte) error) Option {
	return func(c *Conn) {
		if kind < MinCustomFrame || hook == nil {
			return
		}
		if c.hooks == nil {
			c.hooks = make(map[byte]func([]byte) error)
		}
		c.hooks[kind] = hook
	}
}

// WithObs attaches an observability registry: the connection mirrors its
// frame/byte/error counters into the registry's "wire.*" instruments and
// records format-control-frame handling time. Connections sharing a
// registry aggregate. A nil registry is valid and leaves observability
// disabled.
func WithObs(reg *obs.Registry) Option {
	return func(c *Conn) { c.obs = reg }
}

// WithFormatHook installs a callback invoked whenever a format control
// frame arrives, with the decoded format and its associated transforms.
// Intermediaries (the ECho event domain, B2B brokers) use it to relay
// evolution meta-data to their own downstream connections.
func WithFormatHook(hook func(*pbio.Format, []*core.Xform)) Option {
	return func(c *Conn) { c.formatHook = hook }
}

// WithTracer attaches a tracer: sampled write contexts gain encode and
// frame-write spans, and incoming trace frames open frame-read spans. A nil
// tracer is valid and leaves tracing disabled; trace contexts still relay
// (see TraceContext), so an untraced intermediary does not break a trace.
func WithTracer(t *trace.Tracer) Option {
	return func(c *Conn) { c.tracer = t }
}

// WithFrameTap attaches a flight-recorder tap: every frame read or written
// on this connection is offered to it (see FrameTap). A nil tap is valid and
// leaves capture disabled, as does a tap whose ArmedFlag is nil — the hook
// then costs a single nil check per frame, the same zero-cost discipline as
// WithTracer.
func WithFrameTap(t FrameTap) Option {
	return func(c *Conn) {
		if t == nil {
			return
		}
		if flag := t.ArmedFlag(); flag != nil {
			c.tap, c.tapArmed = t, flag
		}
	}
}

// tapOn reports whether the frame tap wants this frame: no tap means no,
// otherwise the tap's armed flag decides with one atomic load. tapArmed is
// non-nil exactly when tap is, so the per-frame gate is two dependent loads,
// branch-predicted away on untapped connections.
func (c *Conn) tapOn() bool {
	return c.tapArmed != nil && c.tapArmed.Load()
}

// NewConn wraps a net.Conn (or net.Pipe end) as a message connection.
func NewConn(nc net.Conn, opts ...Option) *Conn {
	return NewStreamConn(nc, opts...)
}

// NewStreamConn wraps any byte stream as a message connection; it is how
// the framing is reused over non-network transports (files, in-memory
// buffers).
func NewStreamConn(nc Stream, opts ...Option) *Conn {
	c := &Conn{
		nc:          nc,
		maxFrame:    DefaultMaxFrame,
		bw:          bufio.NewWriter(nc),
		br:          bufio.NewReader(nc),
		sent:        make(map[uint64]bool),
		declared:    make(map[uint64][]*core.Xform),
		announced:   make(map[uint64]*pbio.Format),
		recvFormats: make(map[uint64]*pbio.Format),
	}
	for _, o := range opts {
		o(c)
	}
	if c.obs != nil {
		st := &c.stats
		for _, b := range []struct {
			k    *counter
			name string
		}{
			{&st.dataSent, "wire.data_frames_sent"}, {&st.dataRecv, "wire.data_frames_recv"},
			{&st.formatSent, "wire.format_frames_sent"}, {&st.formatRecv, "wire.format_frames_recv"},
			{&st.traceSent, "wire.trace_frames_sent"}, {&st.traceRecv, "wire.trace_frames_recv"},
			{&st.ctrlSent, "wire.control_frames_sent"}, {&st.ctrlRecv, "wire.control_frames_recv"},
			{&st.bytesSent, "wire.bytes_sent"}, {&st.bytesRecv, "wire.bytes_recv"},
			{&st.formatErrors, "wire.format_errors"},
			{&st.corruptFrames, "wire.corrupt_frames"},
			{&st.oversizedFrames, "wire.oversized_frames"},
			{&st.unknownFrames, "wire.unknown_frames"},
			{&st.formatsSuppressed, "wire.formats_suppressed"},
			{&st.formatsResolved, "wire.formats_resolved"},
			{&st.formatReqSent, "wire.format_reqs_sent"}, {&st.formatReqRecv, "wire.format_reqs_recv"},
		} {
			b.k.shared = c.obs.Counter(b.name)
		}
		c.formatNS = c.obs.Histogram("wire.format_frame_ns")
	}
	return c
}

// Declare associates transformation code with a format, mirroring the
// paper's "the writer may also specify a set of transformations". The
// transforms travel in the same control frame as the format description,
// emitted once, before the format's first data frame. Declare replaces any
// previous declaration for the format; it has no effect once the format
// frame has been sent.
func (c *Conn) Declare(f *pbio.Format, xforms ...*core.Xform) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.sent[f.Fingerprint()] {
		return
	}
	c.declared[f.Fingerprint()] = xforms
}

// WriteRecord sends rec, pushing its format meta-data (and declared
// transforms) out-of-band if this connection has not sent that format
// before.
func (c *Conn) WriteRecord(rec *pbio.Record) error {
	return c.WriteRecordCtx(rec, trace.Context{})
}

// WriteRecordCtx sends rec like WriteRecord and, when tctx is a sampled
// trace context, announces it out-of-band in a trace control frame
// immediately preceding the data frame. If the connection also carries a
// tracer, the encode and frame-write stages are timed as child spans of
// tctx. Once encoded, the record is a batch of one on the encoded write path.
func (c *Conn) WriteRecordCtx(rec *pbio.Record, tctx trace.Context) error {
	f := rec.Format()
	var enc trace.Span
	if c.tracer.Enabled() && tctx.Sampled {
		enc = c.tracer.StartSpan(tctx, trace.StageEncode)
		enc.FP = f.Fingerprint()
	}
	// Encode into a pooled scratch buffer: the frame write copies the bytes
	// into the bufio.Writer, so the scratch can be recycled immediately and
	// steady-state sends allocate nothing per message.
	bp := pbio.GetBuffer(0)
	body := pbio.AppendRecord((*bp)[:0], rec)
	if enc.Recording() {
		enc.N = int64(len(body))
		enc.End()
	}
	one := [1]BatchFrame{{Data: body, Format: f, Ctx: tctx}}
	err := c.WriteEncodedBatchCtx(one[:])
	*bp = body
	pbio.PutBuffer(bp)
	return err
}

// WriteEncoded sends an already-encoded enveloped message of format f,
// pushing f's meta-data out-of-band first when needed — the zero-copy send
// half of the encoded fast path: relays and fan-out servers forward bytes
// they received without ever materializing a Record. The message fingerprint
// must match f. It is WriteEncodedBatchCtx with a batch of one, built on the
// stack: the same lock, checks, frames and flush, by the same code.
func (c *Conn) WriteEncoded(f *pbio.Format, data []byte) error {
	one := [1]BatchFrame{{Data: data, Format: f}}
	return c.WriteEncodedBatchCtx(one[:])
}

// BatchFrame is one already-encoded message in a WriteEncodedBatchCtx call:
// the enveloped bytes, the format they carry, and the trace context to
// announce ahead of them when sampled.
type BatchFrame struct {
	Data   []byte
	Format *pbio.Format
	Ctx    trace.Context
}

// WriteEncodedBatchCtx sends n already-encoded messages under one write lock
// and one flush — the coalescing half of the fan-out delivery engine: a
// writer that found N frames backlogged pays one syscall for all of them
// instead of N. It is the connection's one data-write path (WriteRecord and
// WriteEncoded are batches of one through it), so per-frame semantics are
// the same however a message is sent: the fingerprint in the bytes must match
// the frame's format, format meta-data is pushed out-of-band before a
// fingerprint's first data frame, and a sampled trace context is announced
// immediately before its frame. Frames are written in order; the first error
// stops the batch and is returned. A frame that fails its fingerprint check
// leaves the frames before it flushed best-effort, so the peer is never left
// mid-batch short of a transport failure.
func (c *Conn) WriteEncodedBatchCtx(batch []BatchFrame) error {
	if len(batch) == 0 {
		return nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for i := range batch {
		bf := &batch[i]
		fp, err := pbio.PeekFingerprint(bf.Data)
		if err == nil && fp != bf.Format.Fingerprint() {
			err = fmt.Errorf("%w: message %016x, format %q is %016x",
				pbio.ErrFingerprint, fp, bf.Format.Name(), bf.Format.Fingerprint())
		}
		if err != nil {
			_ = c.bw.Flush() // best-effort; err already says why the batch stopped
			return err
		}
		if err := c.ensureFormatLocked(bf.Format, fp); err != nil {
			return err
		}
		if err := c.writeDataLocked(bf.Data, fp, bf.Ctx); err != nil {
			return err
		}
	}
	return c.bw.Flush()
}

// ensureFormatLocked makes the peer able to name fp before its first data
// frame: normally by writing the format control frame, or — when the
// suppressor confirms the shared registry holds the format — by skipping it
// entirely, leaving resolution to the peer's registry client. Either way the
// format is remembered for later frameFormatReq re-announcements.
func (c *Conn) ensureFormatLocked(f *pbio.Format, fp uint64) error {
	if c.sent[fp] {
		return nil
	}
	c.announced[fp] = f
	if c.suppress != nil && c.suppress(f) {
		c.stats.formatsSuppressed.inc()
		c.sent[fp] = true
		return nil
	}
	if err := c.writeFormatLocked(f, c.declared[fp]); err != nil {
		return err
	}
	c.sent[fp] = true
	return nil
}

// WriteControl sends one custom control frame (kind MinCustomFrame or above)
// and flushes. Receivers that attached a matching WithControlHook dispatch
// the body to it; others skip the frame, counting it under UnknownFrames —
// the forward-evolution discipline that lets new out-of-band protocols ride
// existing connections.
func (c *Conn) WriteControl(kind byte, body []byte) error {
	if kind < MinCustomFrame {
		return fmt.Errorf("%w: %d (custom kinds start at %d)", ErrReservedFrame, kind, MinCustomFrame)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.writeFrameLocked(kind, body); err != nil {
		return err
	}
	return c.bw.Flush()
}

// writeDataLocked buffers the trace announcement (when tctx is sampled) and
// the data frame, timing the pair as a frame_write span when this side
// traces. It never flushes: WriteEncodedBatchCtx does, once per batch.
func (c *Conn) writeDataLocked(body []byte, fp uint64, tctx trace.Context) error {
	var fw trace.Span
	if c.tracer.Enabled() && tctx.Sampled {
		fw = c.tracer.StartSpan(tctx, trace.StageFrameWrite)
		fw.FP = fp
		fw.N = int64(len(body))
	}
	if tctx.Sampled && tctx.Valid() {
		var scratch [trace.ContextWireSize]byte
		wireCtx := tctx.AppendWire(scratch[:0])
		if err := c.writeFrameLocked(frameTrace, wireCtx); err != nil {
			fw.EndErr(err)
			return err
		}
		if c.tapOn() {
			c.tap.CaptureFrame(TapWrite, frameTrace, wireCtx, tctx)
		}
	}
	err := c.writeFrameLocked(frameData, body)
	if err == nil && c.tapOn() {
		c.tap.CaptureFrame(TapWrite, frameData, body, tctx)
	}
	fw.EndErr(err)
	return err
}

func (c *Conn) writeFormatLocked(f *pbio.Format, xforms []*core.Xform) error {
	return c.writeFrameLocked(frameFormat, AppendFormatFrame(nil, f, xforms))
}

// AppendFormatFrame appends the body of a format control frame (kind
// KindFormat) announcing f with its associated transformation meta-data —
// the inverse of ParseFormatFrame. The format registry stores and serves its
// entries in this same layout.
func AppendFormatFrame(dst []byte, f *pbio.Format, xforms []*core.Xform) []byte {
	blob := pbio.EncodeFormat(f)
	dst = binary.AppendUvarint(dst, uint64(len(blob)))
	dst = append(dst, blob...)
	dst = binary.AppendUvarint(dst, uint64(len(xforms)))
	for _, x := range xforms {
		xb := core.EncodeXform(x)
		dst = binary.AppendUvarint(dst, uint64(len(xb)))
		dst = append(dst, xb...)
	}
	return dst
}

func (c *Conn) writeFrameLocked(typ byte, body []byte) error {
	hdr := &c.whdr
	hdr[0] = typ
	n := binary.PutUvarint(hdr[1:], uint64(len(body)))
	if _, err := c.bw.Write(hdr[:1+n]); err != nil {
		return err
	}
	if _, err := c.bw.Write(body); err != nil {
		return err
	}
	c.stats.bytesSent.add(uint64(1 + n + len(body)))
	switch typ {
	case frameData:
		c.stats.dataSent.inc()
	case frameTrace:
		c.stats.traceSent.inc()
	case frameFormat:
		c.stats.formatSent.inc()
	case frameFormatReq:
		c.stats.formatReqSent.inc()
	default:
		c.stats.ctrlSent.inc()
	}
	// Data and trace frames are captured by the data-write callers, which
	// hold the real trace context; this site covers format and control
	// frames. Ordering the kind compares first keeps the per-data-frame
	// cost at two predicted branches with no loads.
	if typ != frameData && typ != frameTrace && c.tapOn() {
		c.tap.CaptureFrame(TapWrite, typ, body, trace.Context{})
	}
	return nil
}

// ReadRecord reads frames until a data frame arrives, returning the decoded
// record in its wire format. Format control frames encountered on the way
// are absorbed: the format cache is updated and transformations are handed
// to the attached Morpher. io.EOF is returned when the peer closes cleanly.
func (c *Conn) ReadRecord() (*pbio.Record, error) {
	body, f, err := c.ReadEncoded()
	if err != nil {
		return nil, err
	}
	return pbio.DecodeRecord(body, f)
}

// ReadEncoded reads frames until a data frame arrives, returning its
// enveloped bytes together with the wire format the peer announced for them,
// without decoding the payload. Format control frames encountered on the way
// are absorbed exactly as in ReadRecord.
//
// The returned slice aliases a pooled frame buffer owned by the connection:
// it is valid only until the next Read*/Serve call and must be copied if
// retained. The payload is NOT validated against the format — pass it to
// Morpher.DeliverEncoded (which validates on whichever lane it takes) or to
// pbio.DecodeRecord.
func (c *Conn) ReadEncoded() ([]byte, *pbio.Format, error) {
	for {
		// Parked frames whose format has since been announced replay first,
		// in arrival order, before any new frame is read.
		if body, f, tctx, ok := c.unparkReady(); ok {
			c.rctx = tctx
			return body, f, nil
		}
		typ, body, err := c.readFrame()
		if err != nil {
			return nil, nil, err
		}
		switch typ {
		case frameFormat:
			var t0 time.Time
			if c.formatNS != nil {
				t0 = time.Now()
			}
			if err := c.handleFormatFrame(body); err != nil {
				// Surface malformed format meta-data loudly: count it (the
				// satellite fix for silently indistinguishable drops) and
				// return the error to the caller.
				c.stats.formatErrors.inc()
				return nil, nil, err
			}
			c.formatNS.ObserveNS(time.Since(t0).Nanoseconds())
		case frameTrace:
			tctx, err := trace.ParseWire(body)
			if err != nil {
				c.stats.corruptFrames.inc()
				return nil, nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
			}
			c.pending = tctx
			if c.tracer.Enabled() && tctx.Sampled {
				c.rspan = c.tracer.StartSpan(tctx, trace.StageFrameRead)
			}
		case frameData:
			fp, err := pbio.PeekFingerprint(body)
			if err != nil {
				c.stats.corruptFrames.inc()
				return nil, nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
			}
			// Consume the out-of-band context announced for this frame. When
			// this side traces, downstream spans parent under its frame_read
			// span; otherwise the announced context relays through untouched.
			tctx := c.pending
			c.pending = trace.Context{}
			if c.rspan.Recording() {
				c.rspan.FP = fp
				c.rspan.N = int64(len(body))
				c.rspan.End()
				tctx = c.rspan.Context()
				c.rspan = trace.Span{}
			}
			f, ok := c.recvFormats[fp]
			if !ok && c.resolver != nil {
				// The fingerprint was never announced in-band: the peer is
				// relying on the shared registry. Resolve lazily, once — the
				// format cache makes every later message of this format free.
				if rf, xforms, rerr := c.resolver.ResolveFormat(fp); rerr == nil && rf != nil && rf.Fingerprint() == fp {
					if err = c.adoptFormat(rf, xforms, true); err != nil {
						return nil, nil, err
					}
					c.stats.formatsResolved.inc()
					f, ok = rf, true
				}
			}
			if !ok {
				// Registry miss (down, unknown, or no resolver configured in a
				// registry deployment): park the frame and ask the peer to
				// re-announce the format in-band. Without a resolver this is
				// the legacy hard failure.
				if c.resolver == nil {
					return nil, nil, fmt.Errorf("%w: %016x", ErrUnknownFormat, fp)
				}
				if err := c.parkFrame(fp, body, tctx); err != nil {
					return nil, nil, err
				}
				continue
			}
			c.rctx = tctx
			return body, f, nil
		case frameFormatReq:
			if len(body) != 8 {
				c.stats.corruptFrames.inc()
				return nil, nil, fmt.Errorf("%w: format request body %d bytes, want 8", ErrBadFrame, len(body))
			}
			c.stats.formatReqRecv.inc()
			if err := c.reannounce(binary.LittleEndian.Uint64(body)); err != nil {
				return nil, nil, err
			}
		default:
			// A frame type of zero means the stream is desynchronized or the
			// peer is hostile: fail loudly. A kind claimed by a control hook
			// is dispatched to it; any other kind is a well-formed control
			// frame from a newer peer — skip it so out-of-band meta-data can
			// evolve without breaking older receivers.
			if typ == 0 {
				c.stats.corruptFrames.inc()
				return nil, nil, fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, typ)
			}
			if hook := c.hooks[typ]; hook != nil {
				c.stats.ctrlRecv.inc()
				if err := hook(body); err != nil {
					return nil, nil, err
				}
				continue
			}
			c.stats.unknownFrames.inc()
		}
	}
}

// parkedFrameLimit and parkedByteLimit bound how much a peer that never
// answers re-announcement requests can make us buffer.
const (
	parkedFrameLimit = 64
	parkedByteLimit  = 1 << 20
)

// parkFrame copies a data frame whose format is still unknown aside and
// (once per fingerprint) asks the peer to re-announce the format in-band.
func (c *Conn) parkFrame(fp uint64, body []byte, tctx trace.Context) error {
	if len(c.parked) >= parkedFrameLimit || c.parkedBytes+len(body) > parkedByteLimit {
		return fmt.Errorf("%w: %016x (re-announcement backlog full: %d frames, %d bytes)",
			ErrUnknownFormat, fp, len(c.parked), c.parkedBytes)
	}
	cp := make([]byte, len(body))
	copy(cp, body)
	c.parked = append(c.parked, parkedFrame{fp: fp, body: cp, tctx: tctx})
	c.parkedBytes += len(cp)
	c.stats.parkedFrames.inc()
	if c.requested == nil {
		c.requested = make(map[uint64]bool)
	}
	if !c.requested[fp] {
		c.requested[fp] = true
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], fp)
		c.wmu.Lock()
		err := c.writeFrameLocked(frameFormatReq, b[:])
		if err == nil {
			err = c.bw.Flush()
		}
		c.wmu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// unparkReady returns the oldest parked frame whose format has been announced
// since it was parked, if any.
func (c *Conn) unparkReady() ([]byte, *pbio.Format, trace.Context, bool) {
	for i := range c.parked {
		f, ok := c.recvFormats[c.parked[i].fp]
		if !ok {
			continue
		}
		pf := c.parked[i]
		c.parked = append(c.parked[:i], c.parked[i+1:]...)
		c.parkedBytes -= len(pf.body)
		return pf.body, f, pf.tctx, true
	}
	return nil, nil, trace.Context{}, false
}

// reannounce answers a peer's frameFormatReq: if this connection has sent (or
// suppressed) the format, its control frame is emitted again, in-band,
// regardless of suppression — the peer just told us its registry path failed.
func (c *Conn) reannounce(fp uint64) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	f, ok := c.announced[fp]
	if !ok {
		return nil // never ours to announce; ignore
	}
	if err := c.writeFormatLocked(f, c.declared[fp]); err != nil {
		return err
	}
	return c.bw.Flush()
}

// readFrame returns the next frame. The body aliases a pooled buffer that
// stays valid until the next readFrame call, at which point it is recycled —
// the single-goroutine read-loop contract of Conn makes this safe, and it is
// why a steady message stream reads with zero per-frame allocations.
func (c *Conn) readFrame() (byte, []byte, error) {
	if c.held != nil {
		pbio.PutBuffer(c.held)
		c.held = nil
	}
	typ, err := c.br.ReadByte()
	if err != nil {
		return 0, nil, err // io.EOF passes through untouched
	}
	size, err := binary.ReadUvarint(c.br)
	if err != nil {
		c.stats.corruptFrames.inc()
		// The cause is wrapped (not just rendered) so stream-over-file readers
		// (spool) can tell a torn tail — EOF mid-frame — from corruption.
		return 0, nil, fmt.Errorf("%w: bad length: %w", ErrBadFrame, err)
	}
	if size > uint64(c.maxFrame) {
		c.stats.oversizedFrames.inc()
		return 0, nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, size, c.maxFrame)
	}
	c.held = pbio.GetBuffer(int(size))
	body := *c.held
	if _, err := io.ReadFull(c.br, body); err != nil {
		c.stats.corruptFrames.inc()
		return 0, nil, fmt.Errorf("%w: truncated body: %w", ErrBadFrame, err)
	}
	c.stats.bytesRecv.add(1 + uint64(uvarintLen(size)) + size)
	switch typ {
	case frameData:
		c.stats.dataRecv.inc()
	case frameFormat:
		c.stats.formatRecv.inc()
	case frameTrace:
		c.stats.traceRecv.inc()
	}
	if c.tapOn() {
		// c.pending is the context the most recent frameTrace frame announced
		// for the data frame that follows it; readFrame runs on the single
		// read goroutine, so it is current here.
		var tctx trace.Context
		if typ == frameData {
			tctx = c.pending
		}
		c.tap.CaptureFrame(TapRead, typ, body, tctx)
	}
	return typ, body, nil
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func (c *Conn) handleFormatFrame(body []byte) error {
	f, xforms, err := ParseFormatFrame(body, c.morpher != nil || c.formatHook != nil)
	if err != nil {
		return err
	}
	return c.adoptFormat(f, xforms, false)
}

// ParseFormatFrame decodes the body of a format control frame (kind
// KindFormat) into the format it announces and its associated transformation
// meta-data. When validateXforms is set, transform code that does not compile
// against its own formats is rejected now, at meta-data time, instead of
// poisoning the first delivery — the live read path enables this whenever a
// Morpher or format hook will consume the transforms. Offline decoders (the
// morphtap capture reader) parse with validation off.
func ParseFormatFrame(body []byte, validateXforms bool) (*pbio.Format, []*core.Xform, error) {
	rest := body
	next := func() ([]byte, error) {
		n, used := binary.Uvarint(rest)
		if used <= 0 || n > uint64(len(rest)-used) {
			return nil, fmt.Errorf("%w: format frame chunk", ErrBadFrame)
		}
		chunk := rest[used : used+int(n)]
		rest = rest[used+int(n):]
		return chunk, nil
	}
	blob, err := next()
	if err != nil {
		return nil, nil, err
	}
	f, err := pbio.DecodeFormat(blob)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}

	nx, used := binary.Uvarint(rest)
	if used <= 0 {
		return nil, nil, fmt.Errorf("%w: transform count", ErrBadFrame)
	}
	rest = rest[used:]
	var xforms []*core.Xform
	for i := uint64(0); i < nx; i++ {
		xb, err := next()
		if err != nil {
			return nil, nil, err
		}
		x, err := core.DecodeXform(xb)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: transform %d: %v", ErrBadFrame, i, err)
		}
		if validateXforms {
			if err := x.Validate(); err != nil {
				return nil, nil, fmt.Errorf("%w: transform %d: %v", ErrBadFrame, i, err)
			}
		}
		xforms = append(xforms, x)
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes in format frame", ErrBadFrame, len(rest))
	}
	return f, xforms, nil
}

// adoptFormat installs a format (and its transformation meta-data) into the
// read-side cache, whether it arrived in-band (format frame) or out-of-band
// (registry resolution). validate re-checks transform code for the registry
// path, where the format-frame handler's eager validation did not run.
func (c *Conn) adoptFormat(f *pbio.Format, xforms []*core.Xform, validate bool) error {
	if validate && (c.morpher != nil || c.formatHook != nil) {
		for i, x := range xforms {
			if err := x.Validate(); err != nil {
				return fmt.Errorf("%w: registry transform %d: %v", ErrBadFrame, i, err)
			}
		}
	}
	if c.morpher != nil {
		for _, x := range xforms {
			if err := c.morpher.AddTransform(x); err != nil {
				return err
			}
		}
	}
	fp := f.Fingerprint()
	c.recvFormats[fp] = f
	delete(c.requested, fp)
	if c.formatHook != nil {
		c.formatHook(f, xforms)
	}
	return nil
}

// Serve reads messages until EOF or error, delivering each through the
// attached Morpher. It is the receive loop of a morphing-aware endpoint.
// Messages stay in encoded form across the transport boundary: the Morpher
// decides per cached plan whether a delivery can complete on the byte-level
// splice lane or needs a materialized Record.
//
// A delivery the Morpher rejects (core.ErrRejected — no registered format
// within thresholds) is a per-message outcome, not a connection failure: the
// frame is counted (Stats.RejectedDeliveries) and the loop keeps reading.
// Tearing the connection down here would turn one unroutable format into the
// silent loss of every later message on the stream — including formats the
// receiver handles fine.
//
// Only an end of stream between frames is a clean return; a stream that ends
// inside a frame returns the ErrBadFrame that wraps its EOF.
func (c *Conn) Serve() error {
	if c.morpher == nil {
		return errors.New("wire: Serve requires a Morpher (use WithMorpher)")
	}
	for {
		body, f, err := c.ReadEncoded()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := c.morpher.DeliverEncodedCtx(body, f, c.rctx); err != nil {
			if errors.Is(err, core.ErrRejected) {
				c.stats.rejectedDeliveries.inc()
				continue
			}
			return err
		}
	}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// RemoteAddr exposes the peer address for logging, or nil when the
// underlying stream is not a network connection.
func (c *Conn) RemoteAddr() net.Addr {
	if nc, ok := c.nc.(net.Conn); ok {
		return nc.RemoteAddr()
	}
	return nil
}
