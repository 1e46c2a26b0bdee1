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
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/trace"
)

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
	wbuf      *[]byte // a write call's frames, from writeBufs; nil between calls
	werr      error   // the first failed or short stream Write; every later write call returns it
	sent      map[uint64]bool
	declared  map[uint64][]*core.Xform
	announced map[uint64]*pbio.Format // formats sent (or suppressed) on this conn, for re-announcement

	// The read buffer (single goroutine, see readFrame and fill): rbuf is
	// rsmall, made on the first read, or *rpool while reads fill their
	// buffer; rbuf[rpos:rend] is read and not yet parsed; rfull says the
	// last read filled rbuf; rerr is a stream error that arrived with data.
	rbuf, rsmall []byte
	rpool        *[]byte
	rpos, rend   int
	rfull        bool
	rerr         error
	recvFormats  map[uint64]*pbio.Format

	// Parked data frames (read side, single goroutine): frames whose
	// fingerprint neither the format cache nor the resolver could name, held
	// until the peer answers our frameFormatReq with an in-band format frame.
	parked      []parkedFrame
	parkedBytes int
	requested   map[uint64]bool // fingerprints we have asked the peer to re-announce

	// Read-side trace state (single-goroutine, like rbuf): pending is the
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
// The body aliases the connection's read buffer and is valid only for the
// duration of the call. A hook error tears the connection down, like any
// frame error. The registry subsystem layers its RPC protocol on this.
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
