package echo

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/tap"
	"repro/internal/trace"
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

// Members returns the current membership of a channel (empty if the channel
// does not exist).
func (s *Server) Members(channelID string) []Member {
	s.mu.Lock()
	ch, ok := s.channels[channelID]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	return memberInfo(ch.memberList())
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
		defer s.mu.Unlock()
		for _, ch := range s.channels {
			for _, mc := range ch.memberList() {
				if mc.q != nil && mc.q.Failed() {
					return fmt.Errorf("channel %q: failed sink queue still in membership", ch.id)
				}
			}
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
		for _, mc := range ch.memberList() {
			_ = mc.conn.Close()
		}
	}
	s.wg.Wait()
	return err
}
