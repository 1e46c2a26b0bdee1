package echo

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Options configures a Subscriber.
type Options struct {
	// Source and Sink declare the roles requested in the
	// ChannelOpenRequest. A pure publisher sets only Source; a pure
	// listener only Sink.
	Source, Sink bool

	// Contact is the contact string reported to other members; defaults to
	// the connection's local address.
	Contact string

	// V1Compat makes the subscriber behave like an un-upgraded ECho v1.0
	// process: it sends the original ChannelOpenRequest and registers only
	// the v1.0 ChannelOpenResponse format. It still interoperates with
	// v2.0 servers because their responses carry the Figure 5 morphing
	// code (and the server morphs its old request on the way in).
	V1Compat bool

	// Filter is an optional derived-channel predicate: E-Code over a
	// record parameter named "event", evaluated by the event domain before
	// forwarding events to this sink. Events whose formats the filter does
	// not compile against are suppressed (fail closed). Ignored for
	// V1Compat subscribers, whose request format predates filters.
	Filter string

	// Thresholds configures the subscriber's morphing engine; the zero
	// value means core.DefaultThresholds.
	Thresholds *core.Thresholds

	// Obs attaches an observability registry to the subscriber: its
	// morphing engine records core.* decision metrics and its connection
	// records wire.* frame metrics there. Nil disables observability.
	Obs *obs.Registry

	// Tracer attaches a message tracer: sampled publishes start a trace
	// whose context rides the wire ahead of the event, and received events
	// carry their sender's context through the morphing engine. Nil
	// disables tracing (the zero-cost default).
	Tracer *trace.Tracer

	// Registry attaches a format-registry client (cmd/formatd). The
	// subscriber then declares wants_registry in its open request, publishes
	// the formats it emits to the registry instead of (only) announcing them
	// in-band, suppresses in-band format frames the registry already holds,
	// resolves unknown incoming fingerprints out-of-band, and lets its
	// morphing engine pull transformation meta-data from the registry when a
	// local decision fails. Configuring a registry implies the event domain
	// is registry-enabled too (the deployment shares one formatd); if the
	// registry is down or an entry is missing, the connection degrades to
	// classic in-band format frames automatically. Ignored for V1Compat
	// subscribers. Nil disables the registry path.
	Registry *registry.Client

	// HandshakeTimeout bounds the open handshake; defaults to 10 seconds.
	HandshakeTimeout time.Duration
}

// Subscriber is one endpoint of an event channel: it can publish events
// (if opened as a source) and receive them through registered handlers (if
// opened as a sink). Every subscriber owns a core.Morpher, so both protocol
// messages and event payloads benefit from morphing.
type Subscriber struct {
	conn     *wire.Conn
	morpher  *core.Morpher
	tracer   *trace.Tracer
	channel  string
	registry *registry.Client // nil unless Options.Registry was set
	unhook   func()           // removes the registry watch-event hook; nil without a registry

	mu      sync.Mutex
	members []Member

	// encMu guards enc, the buffer Publish encodes into and hands to the
	// connection. It is kept between publishes, so a steady stream of events
	// allocates nothing, and dropped once an event grows it past maxPending,
	// so one large event does not pin its size.
	encMu sync.Mutex
	enc   []byte
}

// tapRole names a member's roles for flight-recorder connection labels.
func tapRole(source, sink bool) string {
	switch {
	case source && sink:
		return "source+sink"
	case source:
		return "source"
	case sink:
		return "sink"
	}
	return "member"
}

// ErrHandshake is returned when the channel-open handshake fails.
var ErrHandshake = errors.New("echo: channel open handshake failed")

// Open connects to the event domain at addr and joins the named channel.
// Returned means subscribed: the server adds the member to the channel's
// fan-out before it writes the response Open waits for, so a sink receives
// every event the server takes in after Open returns — including one a peer
// publishes the instant it learns of this member.
func Open(addr, channelID string, opts Options) (*Subscriber, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("echo: dial %s: %w", addr, err)
	}
	return open(nc, channelID, opts)
}

func open(nc net.Conn, channelID string, opts Options) (*Subscriber, error) {
	th := core.DefaultThresholds
	if opts.Thresholds != nil {
		th = *opts.Thresholds
	}
	timeout := opts.HandshakeTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}

	rc := opts.Registry
	if opts.V1Compat {
		// An un-upgraded binary predates the registry entirely.
		rc = nil
	}
	mopts := []core.MorpherOption{core.WithObs(opts.Obs), core.WithTracer(opts.Tracer)}
	if rc != nil {
		// When a local morph decision finds no route, ask the registry for
		// transformation meta-data before giving up (once per fingerprint;
		// the decision cache remembers the outcome either way) — first
		// through the client's caches, then past them: a structurally reused
		// fingerprint can leave the LRU holding a transform set an earlier
		// protocol generation registered, and only the daemon knows better.
		mopts = append(mopts, core.WithTransformSource(rc.TransformsFor))
	}
	s := &Subscriber{
		morpher:  core.NewMorpher(th, mopts...),
		tracer:   opts.Tracer,
		channel:  channelID,
		registry: rc,
	}
	copts := []wire.Option{wire.WithMorpher(s.morpher), wire.WithObs(opts.Obs),
		wire.WithTracer(opts.Tracer)}
	if rc != nil {
		copts = append(copts,
			wire.WithResolver(rc),
			wire.WithFormatSuppressor(rc.Holds),
		)
	}
	// Every byte the subscriber sends goes through one coalescer: a burst of
	// publishes leaves in one write syscall instead of one each.
	s.conn = wire.NewConn(newCoalescer(nc, timeout), copts...)

	// Register the ChannelOpenResponse format this client understands.
	// A v1-compat client knows nothing about v2.0; morphing bridges the gap.
	responseSeen := make(chan []Member, 1)
	respond := func(members []Member) error {
		select {
		case responseSeen <- members:
		default:
		}
		return nil
	}
	var regErr error
	if opts.V1Compat {
		regErr = s.morpher.RegisterFormat(ResponseV1Format, func(r *pbio.Record) error {
			return respond(MembersFromV1(r))
		})
	} else {
		regErr = s.morpher.RegisterFormat(ResponseV2Format, func(r *pbio.Record) error {
			return respond(MembersFromV2(r))
		})
	}
	if regErr != nil {
		_ = s.conn.Close()
		return nil, regErr
	}

	contact := opts.Contact
	if contact == "" {
		contact = nc.LocalAddr().String()
	}
	if rc != nil {
		// Publish the open-request format so even the handshake can ride the
		// registry: when it succeeds the suppressor elides the very first
		// format frame of the connection. Best-effort, like every
		// registration — a failure only means the frame goes in-band.
		_ = rc.Register(RequestV3Format)
		// Subscribe to the invalidation stream off the handshake path: the
		// daemon pre-warms this member's cache with every format its peers
		// register, so later fingerprints resolve without a round-trip and
		// stale negative entries clear ahead of their TTL.
		go func() { _ = rc.Watch() }()
	}
	deadline := time.Now().Add(timeout)
	_ = nc.SetDeadline(deadline)
	if err := s.conn.WriteRecord(encodeRequest(openRequest{
		ChannelID: channelID,
		Contact:   contact,
		IsSource:  opts.Source,
		IsSink:    opts.Sink,
		Filter:    opts.Filter,
		Registry:  rc != nil,
	}, opts.V1Compat)); err != nil {
		_ = s.conn.Close()
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}

	// Pump the connection until the response handler fires.
	for {
		select {
		case members := <-responseSeen:
			_ = nc.SetDeadline(time.Time{})
			s.mu.Lock()
			s.members = members
			s.mu.Unlock()
			if rc != nil {
				// A watch event means a fingerprint's transform set changed
				// at the daemon; any decision this subscriber cached for it —
				// in the worst case a reject, which no later traffic would
				// revisit — predates the change and must be rebuilt on the
				// next message. Hooked only now, on handshake success, so the
				// error paths above cannot leak the registration; Close
				// removes it.
				s.unhook = rc.OnEvent(s.morpher.Invalidate)
			}
			return s, nil
		default:
		}
		rec, err := s.conn.ReadRecord()
		if err != nil {
			_ = s.conn.Close()
			return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
		}
		if err := s.morpher.Deliver(rec); err != nil {
			_ = s.conn.Close()
			return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
		}
	}
}

// Channel returns the channel this subscriber joined.
func (s *Subscriber) Channel() string { return s.channel }

// Members returns the channel membership reported at open time (including
// this subscriber).
func (s *Subscriber) Members() []Member {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Member(nil), s.members...)
}

// Handle registers a handler for events arriving in (or morphable to)
// format f. Call before Run.
func (s *Subscriber) Handle(f *pbio.Format, h core.Handler) error {
	return s.morpher.RegisterFormat(f, h)
}

// HandleDefault registers the handler for events no registered format
// matches.
func (s *Subscriber) HandleDefault(h core.Handler) {
	s.morpher.SetDefaultHandler(h)
}

// Declare attaches transformation meta-data to an event payload format this
// subscriber publishes, so older sinks can morph it (the B2B broker pattern
// of Figure 7: conversion code travels with the data, the receiver pays the
// conversion cost).
func (s *Subscriber) Declare(f *pbio.Format, xforms ...*core.Xform) {
	if s.registry != nil {
		// Publish the meta-data out-of-band first, so the in-band format
		// frame can be suppressed from the very first event. A retryable
		// failure (a replica with no current write path: election in flight
		// after a primary died) is ridden out here, before any data flows
		// under this declaration — it is exactly the window where dropping
		// the error loses the metadata for good: the standbys are up, so
		// Holds keeps suppressing the in-band frame, and for a fingerprint
		// an earlier generation already announced (structural reuse) the
		// connection would not re-announce anyway. Elections resolve in a
		// few heartbeats; the cap keeps a wedged cluster from stalling the
		// publisher forever. Non-retryable failures keep the old contract:
		// Holds goes false while down and the frame travels in-band.
		for attempt := 0; ; attempt++ {
			err := s.registry.Register(f, xforms...)
			if err == nil || attempt >= 40 || !errors.Is(err, registry.ErrRetryable) {
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	s.conn.Declare(f, xforms...)
}

// Publish submits an event record to the channel. When a sampled tracer is
// attached, each publish roots a new trace whose context travels with the
// event across the domain and into every sink.
//
// A nil error means the event was accepted for sending, not that it reached
// the kernel: accepted events wait in the connection's outbound buffer, and
// a burst of them leaves in one write. Publish blocks while 64 KiB are
// waiting, as a full socket would block it. The connection's first write
// error is sticky — this Publish or a later one returns it, and so does
// every Publish after that.
//
// Delivery is at most once across the death of the broker: events accepted
// before the connection failed, including some whose Publish returned nil,
// may be lost, and the subscriber never resends them, so none arrives
// twice. A publisher that needs more reopens and republishes.
func (s *Subscriber) Publish(rec *pbio.Record) error {
	f := rec.Format()
	root := s.tracer.StartTrace(trace.StagePublish)
	var enc trace.Span
	if root.Recording() {
		root.FP = f.Fingerprint()
		enc = s.tracer.StartSpan(root.Context(), trace.StageEncode)
		enc.FP = root.FP
	}
	s.encMu.Lock()
	s.enc = pbio.AppendRecord(s.enc[:0], rec)
	if enc.Recording() {
		enc.N = int64(len(s.enc))
		enc.End()
	}
	one := [1]wire.BatchFrame{{Data: s.enc, Format: f, Ctx: root.Context()}}
	err := s.conn.WriteEncodedBatchCtx(one[:])
	if cap(s.enc) > maxPending {
		s.enc = nil
	}
	s.encMu.Unlock()
	root.EndErr(err)
	return err
}

// Morpher exposes the subscriber's morphing engine (for stats and
// diagnostics).
func (s *Subscriber) Morpher() *core.Morpher { return s.morpher }

// WireStats exposes the subscriber connection's frame counters (for tests
// and diagnostics — e.g. confirming that format frames were suppressed on a
// registry-enabled channel).
func (s *Subscriber) WireStats() wire.Stats { return s.conn.Stats() }

// Run receives events and dispatches them through the subscriber's
// handlers until the connection closes. It returns nil on clean shutdown.
func (s *Subscriber) Run() error {
	err := s.conn.Serve()
	if err == nil || errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// Close leaves the channel by closing the connection. It first sends every
// event Publish accepted, waiting at most Options.HandshakeTimeout for a
// broker that has stopped reading; a Publish blocked on a full buffer
// returns an error instead. Close returns the connection's first write
// error, if there was one: some accepted events were then never sent. No
// goroutine of the subscriber's write path outlives Close. The registry client (shared, caller-owned) stays open;
// only this subscriber's watch-event hook on it is removed.
func (s *Subscriber) Close() error {
	if s.unhook != nil {
		s.unhook()
	}
	return s.conn.Close()
}
