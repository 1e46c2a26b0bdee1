package echo

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ecode"
	"repro/internal/fanout"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/registry"
	"repro/internal/tap"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Server is an event domain: it hosts event channels, answers
// ChannelOpenRequests, tracks membership, and fans submitted events out to
// sink subscribers. It always speaks protocol v2.0 and attaches the
// Figure 5 retro-transformation to its responses, so v1.0 subscribers work
// without any version checks in server code — the situation the paper
// contrasts with the "include version information in the request" workaround.
type Server struct {
	mu       sync.Mutex
	ln       net.Listener
	channels map[string]*channel
	closed   bool
	wg       sync.WaitGroup

	// Observability (nil/zero when disabled). The obs registry is shared
	// with every member connection (wire.* counters); the process that owns
	// the debug listener exposes it, the tracer and the tap (obs.Serve).
	obs    *obs.Registry
	om     echoObs
	tracer *trace.Tracer
	tap    *tap.Tap

	// registry, when set, is the event domain's connection to formatd:
	// event-format meta-data is published there as it is first seen, member
	// connections resolve suppressed fingerprints through it, and format
	// frames toward registry-capable members (wants_registry in their open
	// request) are suppressed entirely.
	registry *registry.Client

	// Delivery-engine tuning (WithFanoutQueue): capacity of each sink's
	// outbound queue and what Enqueue does when it fills.
	queueCap    int
	queuePolicy fanout.Policy

	// hookJoined, set only by tests before Serve, runs inside every
	// handshake after the member joined and before its response is written.
	hookJoined func()
}

// echoObs holds the server's instrument handles, fetched once at
// construction. All fields are nil when observability is disabled; the
// instruments are nil-safe, so the fan-out path needs no enabled/disabled
// branches beyond the one histogram timing guard.
type echoObs struct {
	eventsIn  *obs.Counter   // events submitted by publishers
	delivered *obs.Counter   // events written to sinks (post-filter)
	filtered  *obs.Counter   // deliveries suppressed by derived-channel filters
	fanoutNS  *obs.Histogram // latency of one full fan-out pass
	members   *obs.Gauge     // current membership across all channels
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithObs attaches an observability registry: the server mirrors event
// delivery counters into "echo.*" instruments, and member connections
// share the registry for their "wire.*" counters. A nil registry is valid
// and leaves observability disabled.
func WithObs(reg *obs.Registry) ServerOption {
	return func(s *Server) { s.obs = reg }
}

// WithTracer attaches a tracer to the event domain: sampled events fanning
// out record fanout spans and member connections time frame reads; mount
// trace.Handler on the process's debug listener to see them. Share one
// tracer between the server and in-process subscribers to see whole
// publish→sink trees in one place. A nil tracer is valid and leaves
// tracing disabled — trace contexts still relay to sinks either way.
func WithTracer(t *trace.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// WithTap attaches a wire-level flight recorder: every member connection is
// tapped (labeled with its channel and role once the handshake reveals them);
// mount tap.Handler on the process's debug listener to read the capture
// rings. The tap is typically created disarmed — attached taps cost one
// interface call per frame until armed (via Tap.Arm or `/debug/tapz?arm=on`).
// A nil tap is valid and leaves capture disabled entirely.
func WithTap(t *tap.Tap) ServerOption {
	return func(s *Server) { s.tap = t }
}

// WithRegistry attaches a format-registry client (cmd/formatd). The event
// domain then publishes every event format (and its transformation
// meta-data) to the registry as it is first seen, suppresses in-band format
// frames toward members that declared wants_registry in their open request,
// and resolves fingerprints it has never seen in-band by asking the
// registry. A nil client is valid and leaves the registry path disabled.
// Degradation is automatic: while the registry is unreachable, Holds reports
// false and the connection falls back to classic in-band format frames.
func WithRegistry(rc *registry.Client) ServerOption {
	return func(s *Server) { s.registry = rc }
}

// WithFanoutQueue tunes the delivery engine: capacity bounds each sink
// subscriber's outbound frame queue (fanout.DefaultCap when <= 0), and
// policy picks what happens to a sink whose queue fills —
// fanout.DropNewest (default) sheds that sink's newest events while keeping
// it connected, fanout.Disconnect closes it. Either way the slow sink
// degrades alone; the fan-out pass never blocks on it.
func WithFanoutQueue(capacity int, policy fanout.Policy) ServerOption {
	return func(s *Server) {
		s.queueCap = capacity
		s.queuePolicy = policy
	}
}

// NewServer returns an empty event domain.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{channels: make(map[string]*channel)}
	for _, o := range opts {
		o(s)
	}
	if s.obs != nil {
		s.om = echoObs{
			eventsIn:  s.obs.Counter("echo.events_in"),
			delivered: s.obs.Counter("echo.delivered"),
			filtered:  s.obs.Counter("echo.filtered"),
			fanoutNS:  s.obs.Histogram("echo.fanout_ns"),
			members:   s.obs.Gauge("echo.members"),
		}
		// The delivery engine's live-frame refcount is process-global and
		// already an atomic; expose it as a callback gauge so the scrape
		// plane sees frame leaks (it should read 0 whenever fan-out is idle).
		s.obs.GaugeFunc("fanout.live_frames", fanout.LiveFrames)
	}
	return s
}

// fanoutShardCount partitions a channel's sink membership for the delivery
// engine: publishers walk the shards lock-free off one atomic pointer load,
// and membership churn copies only the affected shard. Sixteen shards keep
// each copy-on-write mutation to 1/16th of the membership while the per-shard
// fanout spans stay coarse enough to read.
const fanoutShardCount = 16

// sinkShards is one immutable membership snapshot: sink subscribers
// partitioned by member ID. Mutations build a new snapshot sharing every
// untouched shard's backing array and atomically swap the pointer, so the
// fan-out path never takes ch.mu and never allocates to read membership.
type sinkShards struct {
	shards [fanoutShardCount][]*memberConn
	total  int
}

type channel struct {
	id string

	// om points at the server's instrument handles; the per* instruments
	// aggregate this channel's deliveries alone, as labeled series
	// (`echo.channel.delivered{channel="<id>"}` and friends). obsReg is the
	// owning registry, kept for per-sink series garbage collection when a
	// subscriber leaves. Everything is inert when observability is
	// disabled, as is tracer.
	om             *echoObs
	obsReg         *obs.Registry
	perDelivered   *obs.Counter
	perLagNS       *obs.Histogram
	perDrops       *obs.Counter
	perSlow        *obs.Counter
	perFlushFrames *obs.Histogram // frames per coalesced flush (batching factor)
	perWriters     *obs.Gauge     // writer passes in flight (spawn-on-demand visibility)
	tracer         *trace.Tracer
	reg            *registry.Client

	// Delivery-engine tuning, copied from the server at channel creation.
	// yieldDepth is a quarter of the queue capacity: a fan-out pass that
	// leaves any sink deeper than that yields the processor (see fanout).
	queueCap    int
	queuePolicy fanout.Policy
	yieldDepth  int64

	// sinks is the copy-on-write membership the fan-out path reads; meta is
	// the copy-on-write event-format meta-data snapshot (formats and their
	// transformations seen from publishers, replayed to late subscribers),
	// keyed by format fingerprint. Both are written under ch.mu and read
	// lock-free; a published map is never mutated.
	sinks atomic.Pointer[sinkShards]
	meta  atomic.Pointer[map[uint64]eventMeta]

	mu      sync.Mutex
	nextID  int32
	members map[*memberConn]Member
}

type eventMeta struct {
	format *pbio.Format
	xforms []*core.Xform
}

// SlowDeliveryNS is the slow-consumer threshold: a delivery whose
// publish-to-flush lag reaches it increments the sink's (and channel's)
// slow counter. Healthy local deliveries run in the tens of microseconds;
// a millisecond of lag means a consumer is not draining.
const SlowDeliveryNS = int64(time.Millisecond)

// sinkObs holds one sink subscriber's delivery-accounting instruments, all
// labeled `{channel="...",sink="<member id>"}` so /metrics separates the
// slow consumer from its well-behaved neighbors:
//
//	echo.sink.lag_ns        delivery lag (publish receipt → write flushed)
//	echo.sink.queue_depth   deliveries currently in flight to this sink (memberConn.depth)
//	echo.sink.bytes_pending bytes of those in-flight deliveries
//	echo.sink.dropped       deliveries aborted by a write failure
//	echo.sink.slow          deliveries slower than SlowDeliveryNS
//
// queue_depth/bytes_pending mirror the sink's outbound delivery queue:
// every admitted frame increments them on enqueue and decrements exactly
// once on settle (flushed, dropped on overflow, or discarded at close), so
// a consumer that stops draining shows its queue filling on /metrics in
// real time. All fields are nil (no-op) when observability is disabled.
type sinkObs struct {
	lagNS   *obs.Histogram
	pending *obs.Gauge
	dropped *obs.Counter
	slow    *obs.Counter
	names   []string // registered series names, removed when the sink leaves
}

func newSinkObs(reg *obs.Registry, channel string, id int32, depth *atomic.Int64) sinkObs {
	sink := strconv.Itoa(int(id))
	names := []string{
		obs.LabeledName("echo.sink.lag_ns", "channel", channel, "sink", sink),
		obs.LabeledName("echo.sink.queue_depth", "channel", channel, "sink", sink),
		obs.LabeledName("echo.sink.bytes_pending", "channel", channel, "sink", sink),
		obs.LabeledName("echo.sink.dropped", "channel", channel, "sink", sink),
		obs.LabeledName("echo.sink.slow", "channel", channel, "sink", sink),
	}
	reg.GaugeFunc(names[1], depth.Load)
	return sinkObs{
		lagNS:   reg.Histogram(names[0]),
		pending: reg.Gauge(names[2]),
		dropped: reg.Counter(names[3]),
		slow:    reg.Counter(names[4]),
		names:   names,
	}
}

type memberConn struct {
	conn   *wire.Conn
	member Member

	// ackPending is held (count 1) from just before the member joins the
	// fan-out until its handshake response has been written or has failed;
	// the sink's writer waits on it before touching the conn. See
	// Server.join.
	ackPending sync.WaitGroup

	// q is the sink's bounded outbound queue (nil for pure sources): the
	// fan-out path enqueues refcounted frames, the queue's writer goroutine
	// flushes them in coalesced batches through wbatch. shard is the
	// member's index into the channel's sinkShards.
	q      *fanout.Queue
	wbatch []wire.BatchFrame // writer-only scratch, reused across flushes
	shard  int

	// depth counts the sink's frames enqueued and not yet settled (flushed
	// or dropped), a batch mid-flush included. The queue hooks keep it; the
	// fan-out pass reads it to decide whether to yield.
	depth atomic.Int64

	// so carries the member's per-sink delivery accounting (zero-valued,
	// all-nil when observability is off or the member is not a sink).
	so sinkObs

	// filter is the member's derived-channel predicate (E-Code over a
	// record parameter named "event"); empty means "deliver everything".
	// Compiled programs are cached per event-format fingerprint; a nil
	// cache entry marks a filter that does not compile against that format
	// (fail closed: no events of that format are delivered).
	filter  string
	fmu     sync.Mutex
	filters map[uint64]*ecode.Program
}

// filterFor returns the member's compiled filter for an event format,
// compiling and caching on first use, or (nil, false) if the filter cannot
// apply to this format.
func (mc *memberConn) filterFor(f *pbio.Format) (*ecode.Program, bool) {
	mc.fmu.Lock()
	defer mc.fmu.Unlock()
	if prog, seen := mc.filters[f.Fingerprint()]; seen {
		return prog, prog != nil
	}
	prog, err := ecode.Compile(mc.filter, ecode.Param{Name: "event", Format: f})
	if err != nil {
		prog = nil
	}
	if mc.filters == nil {
		mc.filters = make(map[uint64]*ecode.Program)
	}
	mc.filters[f.Fingerprint()] = prog
	return prog, prog != nil
}

// wants reports whether the member's filter admits the event. Errors during
// filter evaluation fail closed, as does a nil record (an event payload the
// server could not decode).
func (mc *memberConn) wants(ev *pbio.Record) bool {
	if mc.filter == "" {
		return true
	}
	if ev == nil {
		return false
	}
	prog, ok := mc.filterFor(ev.Format())
	if !ok {
		return false
	}
	v, err := prog.Run(ev)
	if err != nil {
		return false
	}
	switch v.Kind() {
	case pbio.Float:
		return v.Float64() != 0
	case pbio.String:
		return v.Strval() != ""
	default:
		return v.Int64() != 0
	}
}

// channelFor returns (creating if needed) the named channel.
func (s *Server) channelFor(id string) *channel {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch, ok := s.channels[id]
	if !ok {
		queueCap := s.queueCap
		if queueCap <= 0 {
			queueCap = fanout.DefaultCap
		}
		ch = &channel{
			id: id, om: &s.om, tracer: s.tracer, reg: s.registry,
			queueCap: s.queueCap, queuePolicy: s.queuePolicy, yieldDepth: int64(queueCap / 4),
			members: make(map[*memberConn]Member),
		}
		if s.obs != nil {
			ch.obsReg = s.obs
			ch.perDelivered = s.obs.Counter(obs.LabeledName("echo.channel.delivered", "channel", id))
			ch.perLagNS = s.obs.Histogram(obs.LabeledName("echo.channel.lag_ns", "channel", id))
			ch.perDrops = s.obs.Counter(obs.LabeledName("echo.channel.drops", "channel", id))
			ch.perSlow = s.obs.Counter(obs.LabeledName("echo.channel.slow", "channel", id))
			ch.perFlushFrames = s.obs.Histogram(obs.LabeledName("echo.channel.flush_frames", "channel", id))
			ch.perWriters = s.obs.Gauge(obs.LabeledName("echo.channel.writers", "channel", id))
		}
		s.channels[id] = ch
	}
	return ch
}

// Members returns the current membership of a channel (empty if the channel
// does not exist).
func (s *Server) Members(channelID string) []Member {
	s.mu.Lock()
	ch, ok := s.channels[channelID]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	out := make([]Member, 0, len(ch.members))
	for _, m := range ch.members {
		out = append(out, m)
	}
	return out
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. Each connection performs the
// ChannelOpenRequest handshake and then publishes/receives events.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("echo: server closed")
	}
	s.ln = ln
	s.mu.Unlock()

	// Publish the protocol's own evolution meta-data to the registry, so
	// registry-capable members can resolve the handshake response without
	// ever seeing its format frame. Best-effort: a down registry only means
	// the in-band path carries the meta-data, as it always has.
	if s.registry != nil {
		go func() {
			_ = s.registry.Register(ResponseV2Format, &core.Xform{
				From: ResponseV2Format,
				To:   ResponseV1Format,
				Code: Figure5Transform,
			})
			// Subscribe to the daemon's invalidation stream: formats other
			// members register from here on land in the cache before any
			// subscriber connects with them, and cached negative resolutions
			// clear as soon as the missing format appears. Best-effort — an
			// old daemon answers ErrWatchUnsupported and the client stays on
			// poll-on-miss.
			_ = s.registry.Watch()
		}()
	}

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.wg.Wait()
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(nc)
		}()
	}
}

// Addr returns the listener address, once Serve has been called.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Health returns the event domain's readiness probes, for the process's
// debug listener (obs.Serve): the accept loop, and when registry-backed the
// registry connection and its watch subscription, and the delivery engine.
func (s *Server) Health() *obs.Health {
	health := obs.NewHealth()
	health.Register("listener", func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return errors.New("server closed")
		}
		if s.ln == nil {
			return errors.New("no listener bound")
		}
		return nil
	})
	if s.registry != nil {
		health.Register("registry", func() error {
			if s.registry.Down() {
				return errors.New("format registry unreachable (down/backed off)")
			}
			return nil
		})
		// The watch probe reports the invalidation stream: Serve subscribes
		// at startup, so readiness converges once the handshake lands; it
		// degrades to failing (visible, not fatal to /healthz) against a
		// daemon without watch support.
		health.Register("registry_watch", func() error {
			if !s.registry.WatchActive() {
				return errors.New("registry watch subscription not live")
			}
			return nil
		})
	}
	// The fanout probe watches the delivery engine for two invariant breaks:
	// a negative live-frame refcount (a double-release) and a failed sink
	// queue still present in a channel's membership (the OnFail→remove path
	// wedged). Both should be impossible; readiness is where "impossible"
	// gets checked.
	health.Register("fanout", func() error {
		if n := fanout.LiveFrames(); n < 0 {
			return fmt.Errorf("live frame refcount negative (%d): double release", n)
		}
		s.mu.Lock()
		channels := make([]*channel, 0, len(s.channels))
		for _, ch := range s.channels {
			channels = append(channels, ch)
		}
		s.mu.Unlock()
		for _, ch := range channels {
			ch.mu.Lock()
			for mc := range ch.members {
				if mc.q != nil && mc.q.Failed() {
					ch.mu.Unlock()
					return fmt.Errorf("channel %q: failed sink queue still in membership", ch.id)
				}
			}
			ch.mu.Unlock()
		}
		return nil
	})
	return health
}

// Close stops accepting and closes every member connection.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	channels := make([]*channel, 0, len(s.channels))
	for _, ch := range s.channels {
		channels = append(channels, ch)
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, ch := range channels {
		ch.mu.Lock()
		for mc := range ch.members {
			_ = mc.conn.Close()
		}
		ch.mu.Unlock()
	}
	s.wg.Wait()
	return err
}

func (s *Server) handleConn(nc net.Conn) {
	var (
		ch *channel
		mc *memberConn
		// peerRegistry is set during the handshake, before the member joins
		// the channel (the ch.mu hand-off publishes it to fanout goroutines):
		// it gates format-frame suppression on the peer having declared
		// wants_registry, so old members always get classic in-band frames.
		peerRegistry bool
	)
	opts := []wire.Option{wire.WithObs(s.obs), wire.WithTracer(s.tracer), wire.WithFormatHook(func(f *pbio.Format, xforms []*core.Xform) {
		// Remember payload formats and their evolution meta-data so they
		// can be re-declared toward every sink (existing and future).
		if ch == nil || f.Name() == "ChannelOpenRequest" {
			return
		}
		ch.recordEventMeta(f, xforms)
	})}
	// Tap the connection before any frame moves: the handshake itself is
	// often the traffic under investigation. The label is provisional until
	// the handshake reveals the channel and role.
	var ct *tap.ConnTap
	if s.tap != nil {
		ct = s.tap.NewConn(tap.Label{Proto: "echo", Role: "member", Peer: nc.RemoteAddr().String()})
		defer ct.Close()
		opts = append(opts, wire.WithFrameTap(ct))
	}
	if s.registry != nil {
		opts = append(opts,
			// Registry-capable publishers suppress their format frames; the
			// server resolves the fingerprints out-of-band.
			wire.WithResolver(s.registry),
			// And symmetrically, suppress toward members that asked for it —
			// but only while the registry actually holds the format
			// (Holds is false while the registry is down or the format
			// unpublished, which falls back to in-band frames).
			wire.WithFormatSuppressor(func(f *pbio.Format) bool {
				return peerRegistry && s.registry.Holds(f)
			}),
		)
	}
	conn := wire.NewConn(nc, opts...)
	defer func() { _ = conn.Close() }()

	// Handshake: the first record must be a ChannelOpenRequest — any
	// revision. Old-format requests are morphed name-wise into v3, with the
	// missing filter defaulting to "deliver everything" and the missing
	// wants_registry flag to "never suppress"; the server has no per-version
	// code path.
	rec, err := conn.ReadRecord()
	if err != nil {
		return
	}
	switch {
	case rec.Format().SameStructure(RequestV3Format):
	case rec.Format().Name() == "ChannelOpenRequest":
		if rec, err = core.ConvertByName(rec, RequestV3Format); err != nil {
			return
		}
	default:
		return
	}
	req := decodeRequest(rec)
	if req.ChannelID == "" {
		return
	}
	peerRegistry = req.Registry && s.registry != nil
	ch = s.channelFor(req.ChannelID)
	if ct != nil {
		ct.SetLabel(tap.Label{Proto: "echo", Channel: req.ChannelID,
			Role: tapRole(req.IsSource, req.IsSink), Peer: nc.RemoteAddr().String()})
	}

	contact := req.Contact
	if contact == "" {
		contact = nc.RemoteAddr().String()
	}
	mc = &memberConn{conn: conn, filter: req.Filter}

	ch.mu.Lock()
	ch.nextID++
	mc.member = Member{Info: contact, ID: ch.nextID, IsSource: req.IsSource, IsSink: req.IsSink}
	ch.mu.Unlock()

	// Sink subscribers get per-sink delivery accounting, keyed by the member
	// ID just assigned, and their outbound delivery queue. Created outside
	// ch.mu: the registry takes its own lock, and instrument creation is
	// cold-path work.
	if mc.member.IsSink {
		if s.obs != nil {
			mc.so = newSinkObs(s.obs, ch.id, mc.member.ID, &mc.depth)
		}
		mc.q = ch.newSinkQueue(mc)
	}

	// Respond in v2.0, with the v2→v1 morphing code attached out-of-band.
	// Event formats' evolution meta-data needs no replay here: the sink's
	// writer declares the channel's latest entry before each event frame
	// (newSinkQueue), and a declaration only matters before a format's
	// first frame.
	conn.Declare(ResponseV2Format, &core.Xform{
		From: ResponseV2Format,
		To:   ResponseV1Format,
		Code: Figure5Transform,
	})
	if err := s.join(ch, mc); err != nil {
		return
	}

	// Event loop: everything else the member sends is an event submission.
	// Events stay in their encoded form end to end: the publisher's bytes are
	// forwarded to every sink verbatim (fanout never re-encodes, and decodes
	// at most once — lazily, for derived-channel filters). The buffer from
	// ReadEncoded is only valid until the next read, which is fine because
	// fanout copies the bytes exactly once into a refcounted shared frame
	// before returning; sink writers drain that frame, not this buffer.
	for {
		data, f, err := conn.ReadEncoded()
		if err != nil {
			ch.remove(mc)
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				_ = err // connection-level failure; membership already cleaned up
			}
			return
		}
		ch.fanout(mc, f, data, conn.TraceContext())
	}
}

// join makes mc a member of ch and then acknowledges the subscription, in
// that order. Invariant: once the peer can read the ChannelOpenResponse —
// so by the time its Open returns — mc is in the fan-out snapshot, and every
// event the broker receives from then on is offered to it. Joining first
// lets a concurrent fan-out enqueue events before the response is written;
// mc.ackPending parks the sink's writer (the Flush in newSinkQueue) until it
// is, so no event frame can precede the response on the wire.
func (s *Server) join(ch *channel, mc *memberConn) error {
	mc.ackPending.Add(1)
	ch.mu.Lock()
	ch.members[mc] = mc.member
	if mc.member.IsSink {
		ch.addSinkLocked(mc)
	}
	members := make([]Member, 0, len(ch.members))
	for _, m := range ch.members {
		members = append(members, m)
	}
	ch.mu.Unlock()
	s.om.members.Add(1)

	if s.hookJoined != nil {
		s.hookJoined()
	}
	err := mc.conn.WriteRecord(ResponseV2Record(members))
	mc.ackPending.Done()
	if err != nil {
		ch.remove(mc)
	}
	return err
}

// metaSnapshot returns the channel's current event-format meta-data — an
// immutable copy-on-write map, read off one atomic load.
func (ch *channel) metaSnapshot() map[uint64]eventMeta {
	if p := ch.meta.Load(); p != nil {
		return *p
	}
	return nil
}

func (ch *channel) recordEventMeta(f *pbio.Format, xforms []*core.Xform) {
	ch.mu.Lock()
	cur := ch.metaSnapshot()
	next := make(map[uint64]eventMeta, len(cur)+1)
	for fp, em := range cur {
		next[fp] = em
	}
	// A re-declaration keeps the first format pointer seen for the
	// fingerprint and takes the new transforms.
	em, ok := next[f.Fingerprint()]
	if !ok {
		em.format = f
	}
	em.xforms = xforms
	next[f.Fingerprint()] = em
	ch.meta.Store(&next)
	ch.mu.Unlock()
	// Publish newly seen event meta-data to the format registry, off the
	// fanout path (registry RPCs may block on the network). Best-effort:
	// failure just leaves the format on the in-band path.
	if ch.reg != nil {
		go func() { _ = ch.reg.Register(f, xforms...) }()
	}
}

// addSinkLocked adds mc to its membership shard, copy-on-write. Caller holds
// ch.mu (which serializes shard writers; readers are lock-free).
func (ch *channel) addSinkLocked(mc *memberConn) {
	next := &sinkShards{}
	if old := ch.sinks.Load(); old != nil {
		next.shards = old.shards
		next.total = old.total
	}
	mc.shard = int(uint32(mc.member.ID) % fanoutShardCount)
	old := next.shards[mc.shard]
	shard := make([]*memberConn, len(old)+1)
	copy(shard, old)
	shard[len(old)] = mc
	next.shards[mc.shard] = shard
	next.total++
	ch.sinks.Store(next)
}

// dropSinkLocked removes mc from its shard, copy-on-write. Caller holds
// ch.mu.
func (ch *channel) dropSinkLocked(mc *memberConn) {
	old := ch.sinks.Load()
	if old == nil {
		return
	}
	cur := old.shards[mc.shard]
	shard := make([]*memberConn, 0, len(cur))
	for _, m := range cur {
		if m != mc {
			shard = append(shard, m)
		}
	}
	if len(shard) == len(cur) {
		return
	}
	next := &sinkShards{shards: old.shards, total: old.total - 1}
	next.shards[mc.shard] = shard
	ch.sinks.Store(next)
}

func (ch *channel) remove(mc *memberConn) {
	ch.mu.Lock()
	_, present := ch.members[mc]
	delete(ch.members, mc)
	if present && mc.member.IsSink {
		ch.dropSinkLocked(mc)
	}
	ch.mu.Unlock()
	// remove can race between the read loop and the delivery engine's
	// failure path; only the call that actually removed the member closes
	// the queue and moves the gauge (and garbage-collects the member's
	// per-sink series — channel aggregates outlive any one sink, per-sink
	// series must not).
	if present {
		if mc.q != nil {
			mc.q.Close()
		}
		ch.om.members.Add(-1)
		if len(mc.so.names) > 0 {
			ch.obsReg.Remove(mc.so.names...)
		}
	}
}

// newSinkQueue builds one sink's outbound delivery queue, wiring the
// accounting pairing into the queue's lifecycle hooks: OnEnqueue increments
// the sink's depth counter and bytes_pending gauge and every admitted frame
// gets exactly one matching decrement — OnDeliver after its batch flushed,
// OnDrop on overflow, write failure, or close. No echo code path touches
// them outside these hooks, so none can strand them.
func (ch *channel) newSinkQueue(mc *memberConn) *fanout.Queue {
	return fanout.NewQueue(fanout.Config{
		Cap:    ch.queueCap,
		Policy: ch.queuePolicy,
		// Flush hands the whole backlog to the wire layer as one batch:
		// one write lock, one flush — N coalesced frames cost one syscall.
		// Evolution meta-data is relayed here, by the sink's own writer,
		// never by the fan-out pass: Declare takes the conn's write lock,
		// which a stalled sink's writer can hold across a blocked flush —
		// exactly the head-of-line block the engine exists to remove.
		Flush: func(batch []*fanout.Frame) error {
			mc.ackPending.Wait() // events follow the handshake response, never lead it
			meta := ch.metaSnapshot()
			wb := mc.wbatch[:0]
			for _, fr := range batch {
				// One lookup per frame, free while no publisher has
				// declared any meta — the common case (a nil map).
				// Declare is idempotent per format (no-op once the format
				// frame is on the wire).
				if em, ok := meta[fr.Format.Fingerprint()]; ok {
					mc.conn.Declare(em.format, em.xforms...)
				}
				wb = append(wb, wire.BatchFrame{Data: fr.Data, Format: fr.Format, Ctx: fr.Ctx})
			}
			err := mc.conn.WriteEncodedBatchCtx(wb)
			for i := range wb {
				wb[i] = wire.BatchFrame{} // don't pin released frame buffers
			}
			mc.wbatch = wb[:0]
			return err
		},
		OnEnqueue: func(fr *fanout.Frame) {
			mc.depth.Add(1)
			mc.so.pending.Add(int64(len(fr.Data)))
		},
		OnDeliver: func(fr *fanout.Frame, lagNS int64) {
			mc.depth.Add(-1)
			mc.so.pending.Add(-int64(len(fr.Data)))
			// Delivery lag: publish receipt (fan-out entry) → this sink's
			// write flushed. The exemplar ties a top-bucket lag sample to
			// the event's trace, so a p99 spike on /metrics resolves to a
			// trace tree in /debug/tracez; unsampled events carry a zero
			// trace ID and record plain.
			mc.so.lagNS.ObserveExemplar(uint64(lagNS), [16]byte(fr.Ctx.Trace))
			ch.perLagNS.Observe(uint64(lagNS))
			if lagNS >= SlowDeliveryNS {
				mc.so.slow.Inc()
				ch.perSlow.Inc()
			}
			ch.om.delivered.Inc()
			ch.perDelivered.Inc()
		},
		OnDrop: func(fr *fanout.Frame) {
			mc.depth.Add(-1)
			mc.so.pending.Add(-int64(len(fr.Data)))
			mc.so.dropped.Inc()
			ch.perDrops.Inc()
		},
		OnFlush: func(frames int) {
			ch.perFlushFrames.Observe(uint64(frames))
		},
		// A write failure or Disconnect-policy overflow fails the sink:
		// drop its membership and close the connection. The queue has
		// already settled the backlog's accounting.
		OnFail: func(error) {
			ch.remove(mc)
			_ = mc.conn.Close()
		},
		// Active writer passes, as a per-channel gauge: it reads 0 whenever
		// the channel is idle (the spawn-on-demand claim) and at most the
		// sink count under load. Inert without observability — a nil gauge
		// absorbs the Add.
		OnWriter: func(delta int) {
			ch.perWriters.Add(int64(delta))
		},
	})
}

// fanout offers an event to every sink subscriber except its publisher —
// the enqueue half of the delivery engine. The publisher's encoded bytes are
// copied exactly once into a refcounted shared frame and enqueued to each
// sink's bounded queue by pointer; dedicated writers flush the queues in
// coalesced batches, so a stalled consumer fills (and degrades) only its own
// queue and this pass never blocks on a write. Membership is an immutable
// copy-on-write snapshot read off one atomic pointer load: the pass holds no
// locks — not even a sink conn's write mutex, which a stalled writer may be
// holding — and allocates nothing beyond the one frame. Evolution meta-data
// is relayed by each sink's writer at flush time, off this path. A pass that
// leaves some sink more than a quarter full ends by yielding the processor,
// so that sink's writer runs before the next pass adds to it.
//
// One read-side decode at most (lazy, only when some sink has a
// derived-channel filter) and zero re-encodes regardless of membership size.
// The server is a pure forwarder; payload validation is the receiving
// Morpher's job.
//
// tctx is the event's trace context from the publisher's connection. When
// the server traces, the whole pass is a fanout span (with one fanout_shard
// child per non-empty shard) and sinks receive the fanout span's context;
// when it does not, tctx relays to sinks verbatim — the same pass-through
// discipline as format meta-data.
func (ch *channel) fanout(from *memberConn, f *pbio.Format, data []byte, tctx trace.Context) {
	ch.om.eventsIn.Inc()
	// t0 is the publish receipt time every sink's delivery lag is measured
	// against; the fan-out histogram times the enqueue pass itself.
	t0 := time.Now()
	timed := ch.om.fanoutNS != nil
	fs := ch.tracer.StartSpan(tctx, trace.StageFanout)
	if fs.Recording() {
		fs.FP = f.Fingerprint()
		tctx = fs.Context()
	}
	shards := ch.sinks.Load()
	if shards == nil || shards.total == 0 {
		if fs.Recording() {
			fs.End()
		}
		if timed {
			ch.om.fanoutNS.ObserveExemplar(uint64(sinceNS(t0)), [16]byte(tctx.Trace))
		}
		return
	}

	// Lazily decode the event once, shared across every filtered sink. A
	// payload that does not decode fails filters closed (nil record).
	var ev *pbio.Record
	var evTried bool
	decoded := func() *pbio.Record {
		if !evTried {
			evTried = true
			ev, _ = pbio.DecodeRecord(data, f)
		}
		return ev
	}

	// The shared frame is created lazily on the first admitted sink — a
	// fully filtered event copies nothing — and the publisher's reference is
	// released at the end of the pass. Each Enqueue takes its own reference.
	var fr *fanout.Frame
	offered := int64(0)
	crowded := false
	for si := range shards.shards {
		shard := shards.shards[si]
		if len(shard) == 0 {
			continue
		}
		ss := ch.tracer.StartSpan(tctx, trace.StageFanoutShard)
		shardOffered := int64(0)
		for _, mc := range shard {
			if mc == from {
				continue
			}
			// Derived channels: apply the member's filter at the source
			// side, so uninteresting events never cross the network.
			if mc.filter != "" && !mc.wants(decoded()) {
				ch.om.filtered.Inc()
				continue
			}
			if fr == nil {
				fr = fanout.NewFrame(data, f, tctx, t0)
			}
			fr.Retain()
			mc.q.Enqueue(fr)
			crowded = crowded || mc.depth.Load() > ch.yieldDepth
			shardOffered++
		}
		offered += shardOffered
		if ss.Recording() {
			ss.N = shardOffered
			ss.End()
		}
	}
	if fr != nil {
		fr.Release()
	}
	if fs.Recording() {
		fs.N = offered
		fs.End()
	}
	if timed {
		// Fan-out latency is recorded unconditionally (not sampled):
		// fan-outs are orders of magnitude rarer than morph deliveries. The
		// exemplar ties a slow pass to its trace.
		ch.om.fanoutNS.ObserveExemplar(uint64(sinceNS(t0)), [16]byte(tctx.Trace))
	}
	if crowded {
		// This pass never blocks, and the read loop that calls it blocks
		// only when its socket is empty. When a publisher's burst arrives
		// already buffered, pass after pass runs back to back, and the sink
		// writers this pass spawned wait behind it for a processor while
		// their queues fill toward DropNewest. Yielding lets them drain.
		runtime.Gosched()
	}
}

// sinceNS is time.Since clamped non-negative (monotonic clock hiccups must
// not underflow the unsigned histograms).
func sinceNS(t0 time.Time) int64 {
	ns := time.Since(t0).Nanoseconds()
	if ns < 0 {
		return 0
	}
	return ns
}
