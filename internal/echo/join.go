package echo

import (
	"net"
	"slices"
	"sync"
	"sync/atomic"

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

	// members is the channel's membership, in join order; meta is the
	// event-format meta-data snapshot (formats and their transformations
	// seen from publishers, replayed to late subscribers), keyed by format
	// fingerprint. Both are copy-on-write: written under ch.mu, read
	// lock-free off one atomic load, and never mutated once published.
	members atomic.Pointer[[]*memberConn]
	meta    atomic.Pointer[map[uint64]eventMeta]

	mu     sync.Mutex
	nextID int32
}

type eventMeta struct {
	format *pbio.Format
	xforms []*core.Xform
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
	// flushes them in coalesced batches through wbatch.
	q      *fanout.Queue
	wbatch []wire.BatchFrame // writer-only scratch, reused across flushes

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

	ch.readLoop(mc)
}

// join makes mc a member of ch and then acknowledges the subscription, in
// that order. Invariant: once the peer can read the ChannelOpenResponse —
// so by the time its Open returns — mc is in the membership list, and every
// event the broker receives from then on is offered to it. Joining first
// lets a concurrent fan-out enqueue events before the response is written;
// mc.ackPending parks the sink's writer (the Flush in newSinkQueue) until it
// is, so no event frame can precede the response on the wire.
func (s *Server) join(ch *channel, mc *memberConn) error {
	mc.ackPending.Add(1)
	members := memberInfo(ch.add(mc))
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

// memberList returns the channel's current membership — an immutable
// copy-on-write slice, read off one atomic load.
func (ch *channel) memberList() []*memberConn {
	if p := ch.members.Load(); p != nil {
		return *p
	}
	return nil
}

// memberInfo lists the Member entries of a membership list.
func memberInfo(list []*memberConn) []Member {
	out := make([]Member, len(list))
	for i, mc := range list {
		out[i] = mc.member
	}
	return out
}

// add appends mc to the membership, copy-on-write, and returns the new list.
func (ch *channel) add(mc *memberConn) []*memberConn {
	ch.mu.Lock()
	next := append(slices.Clip(ch.memberList()), mc) // clipped, so append copies
	ch.members.Store(&next)
	ch.mu.Unlock()
	ch.om.members.Add(1)
	return next
}

func (ch *channel) remove(mc *memberConn) {
	ch.mu.Lock()
	cur := ch.memberList()
	i := slices.Index(cur, mc)
	present := i >= 0
	if present {
		next := slices.Concat(cur[:i], cur[i+1:])
		ch.members.Store(&next)
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
