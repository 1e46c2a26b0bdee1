// Package tap is the wire-level flight recorder: a per-connection lock-free
// ring of captured frame records (kind, direction, fingerprint, length, trace
// ID, timestamp, bounded payload prefix) hung off the framing layer via
// wire.WithFrameTap. It answers the question the telemetry plane cannot —
// "what exactly crossed this connection" — the per-message visibility the
// paper's morph decisions demand when two evolving peers disagree.
//
// Cost discipline mirrors internal/trace: a connection without a tap pays one
// nil check per frame; a connection with a *disarmed* tap pays one interface
// call and one atomic load, and 0 allocations (wire's
// TestEncodedRoundTripAllocs). All per-frame expense
// (record allocation, fingerprint peek, prefix copy) sits strictly behind the
// armed check.
package tap

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/ring"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Defaults and bounds.
const (
	DefaultCapacity = 1024 // ring slots per connection
	DefaultPrefix   = 64   // payload prefix bytes kept per frame
	PrefixMax       = 4096 // hard cap on the prefix (full-frame capture for replay)

	// formatFrameLimit bounds how many distinct full format-frame bodies a
	// connection retains. Format frames are meta-data — a handful per
	// connection lifetime — but they can exceed any reasonable prefix, and
	// the offline decoder needs them whole to rebuild its format table.
	formatFrameLimit = 64

	// retainClosed bounds how many closed connections' rings the tap keeps
	// for post-mortem inspection before the oldest are pruned.
	retainClosed = 32
)

// Record is one captured frame. Records are fixed at capture time and never
// mutated, so snapshot readers share them safely with the capture path.
type Record struct {
	Seq    uint64        // 1-based per-connection capture sequence
	TS     int64         // wall-clock UnixNano — wall time so captures from different processes merge into one timeline
	Dir    wire.TapDir   // read (from peer) or write (to peer)
	Kind   byte          // frame kind (wire.KindData, wire.KindFormat, ...)
	FP     uint64        // message fingerprint (data frames only)
	Len    uint32        // full frame body length on the wire
	Trace  trace.TraceID // trace ID riding with the frame (data frames; zero if untraced)
	Prefix []byte        // first min(Len, prefix-config) body bytes, owned copy
}

// Complete reports whether the record's prefix holds the entire frame body —
// the precondition for field-level decoding and replay.
func (r *Record) Complete() bool { return int(r.Len) == len(r.Prefix) }

// Label identifies a tapped connection for humans and filters.
type Label struct {
	Proto   string `json:"proto"`             // "echo", "registry", ...
	Channel string `json:"channel,omitempty"` // echo channel ID, when known
	Role    string `json:"role,omitempty"`    // "source", "sink", "member", "server", ...
	Peer    string `json:"peer,omitempty"`    // remote address
}

// Config configures a Tap.
type Config struct {
	Name     string // process-level label stamped into exports ("echo-server", "formatd")
	Capacity int    // ring slots per connection; DefaultCapacity when <= 0
	Prefix   int    // payload prefix bytes; DefaultPrefix when <= 0, clamped to PrefixMax
	Armed    bool   // start capturing immediately
	Obs      *obs.Registry
}

// Tap owns the per-connection capture rings of one process. The zero-value
// rule of the diagnostics stack applies: a nil *Tap is valid everywhere and
// does nothing.
type Tap struct {
	name     string
	capacity int
	prefix   int
	armed    atomic.Bool

	captured  *obs.Counter // tap.frames_captured
	armGauge  *obs.Gauge   // tap.armed (0/1)
	connGauge *obs.Gauge   // tap.conns (live tapped connections)

	mu     sync.Mutex
	nextID uint64
	conns  []*ConnTap
}

// New builds a Tap.
func New(cfg Config) *Tap {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Prefix <= 0 {
		cfg.Prefix = DefaultPrefix
	}
	if cfg.Prefix > PrefixMax {
		cfg.Prefix = PrefixMax
	}
	t := &Tap{name: cfg.Name, capacity: cfg.Capacity, prefix: cfg.Prefix}
	t.armed.Store(cfg.Armed)
	if cfg.Obs != nil {
		t.captured = cfg.Obs.Counter("tap.frames_captured")
		t.armGauge = cfg.Obs.Gauge("tap.armed")
		t.connGauge = cfg.Obs.Gauge("tap.conns")
	}
	if cfg.Armed {
		t.armGauge.Set(1)
	}
	return t
}

// Name returns the process label, or "" for a nil tap.
func (t *Tap) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Arm starts capture on every tapped connection.
func (t *Tap) Arm() {
	if t == nil {
		return
	}
	t.armed.Store(true)
	t.armGauge.Set(1)
}

// Disarm stops capture; rings keep whatever they already hold.
func (t *Tap) Disarm() {
	if t == nil {
		return
	}
	t.armed.Store(false)
	t.armGauge.Set(0)
}

// Armed reports whether the tap is currently capturing.
func (t *Tap) Armed() bool { return t != nil && t.armed.Load() }

// NewConn registers a connection with the tap and returns its capture hook,
// ready to hand to wire.WithFrameTap. A nil tap returns a nil *ConnTap, which
// is itself a valid no-op hook — callers never need to branch.
func (t *Tap) NewConn(l Label) *ConnTap {
	if t == nil {
		return nil
	}
	ct := &ConnTap{t: t, opened: time.Now().UnixNano(), label: l,
		ring: ring.New(t.capacity, func(r *Record) *uint64 { return &r.Seq })}
	t.mu.Lock()
	t.nextID++
	ct.id = t.nextID
	t.conns = append(t.conns, ct)
	t.pruneLocked()
	t.mu.Unlock()
	t.connGauge.Add(1)
	return ct
}

// pruneLocked drops the oldest closed connections beyond the retention bound.
func (t *Tap) pruneLocked() {
	closed := 0
	for _, ct := range t.conns {
		if ct.isClosed() {
			closed++
		}
	}
	if closed <= retainClosed {
		return
	}
	kept := t.conns[:0]
	for _, ct := range t.conns {
		if closed > retainClosed && ct.isClosed() {
			closed--
			continue
		}
		kept = append(kept, ct)
	}
	t.conns = kept
}

// ConnTap captures one connection's frames into a lock-free ring (the one
// internal/trace keeps spans in). It
// implements wire.FrameTap; a nil *ConnTap is a valid no-op implementation.
type ConnTap struct {
	t      *Tap
	id     uint64
	opened int64
	ring   *ring.Ring[Record]
	count  atomic.Uint64 // frames captured on this connection

	mu      sync.Mutex
	label   Label
	closed  bool
	formats [][]byte // full format-frame bodies, deduped, bounded
}

// ID returns the tap-local connection ID (0 for nil).
func (ct *ConnTap) ID() uint64 {
	if ct == nil {
		return 0
	}
	return ct.id
}

// SetLabel replaces the connection's label — echo updates it after the
// channel handshake reveals the channel and role.
func (ct *ConnTap) SetLabel(l Label) {
	if ct == nil {
		return
	}
	ct.mu.Lock()
	ct.label = l
	ct.mu.Unlock()
}

// Close marks the connection closed. Its ring stays inspectable until pruned.
func (ct *ConnTap) Close() {
	if ct == nil {
		return
	}
	ct.mu.Lock()
	was := ct.closed
	ct.closed = true
	ct.mu.Unlock()
	if !was {
		ct.t.connGauge.Add(-1)
	}
}

func (ct *ConnTap) isClosed() bool {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.closed
}

// ArmedFlag implements wire.FrameTap: it exposes the tap's armed bool to the
// framing layer, so a disarmed tap costs the connection one direct atomic
// load per frame — CaptureFrame is not even called, so no trace context is
// marshalled into interface-call arguments. Returns nil on a nil ConnTap,
// which the wire layer attaches as no tap at all.
func (ct *ConnTap) ArmedFlag() *atomic.Bool {
	if ct == nil {
		return nil
	}
	return &ct.t.armed
}

// CaptureFrame implements wire.FrameTap. The unarmed path — the one live
// traffic pays on a tap-attached connection in steady state — is the two
// leading checks and nothing else: no allocation, no copy, no fingerprint
// peek. Everything below the armed gate may allocate freely.
func (ct *ConnTap) CaptureFrame(dir wire.TapDir, kind byte, body []byte, tctx trace.Context) {
	if ct == nil || !ct.t.armed.Load() {
		return
	}
	rec := &Record{
		TS:   time.Now().UnixNano(),
		Dir:  dir,
		Kind: kind,
		Len:  uint32(len(body)),
	}
	if kind == wire.KindData {
		rec.FP, _ = pbio.PeekFingerprint(body)
		rec.Trace = tctx.Trace
	} else if kind == wire.KindFormat {
		// Format frames are the decoder's format table; they can exceed any
		// prefix, so keep full copies out-of-ring (rare, deduped, bounded).
		ct.keepFormat(body)
	}
	if n := ct.t.prefix; n > 0 && len(body) > 0 {
		if n > len(body) {
			n = len(body)
		}
		rec.Prefix = append(make([]byte, 0, n), body[:n]...)
	}
	ct.ring.Put(rec)
	ct.count.Add(1)
	ct.t.captured.Inc()
}

func (ct *ConnTap) keepFormat(body []byte) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	for _, have := range ct.formats {
		if bytes.Equal(have, body) {
			return
		}
	}
	if len(ct.formats) >= formatFrameLimit {
		return
	}
	ct.formats = append(ct.formats, append([]byte(nil), body...))
}

// ConnSnapshot is one connection's state at snapshot time.
type ConnSnapshot struct {
	ID       uint64
	Label    Label
	OpenedNS int64
	Open     bool
	Captured uint64
	Dropped  uint64 // ring overwrites (capacity exceeded)
	Formats  [][]byte
	Records  []Record
}

// Snapshot is a point-in-time copy of the whole tap.
type Snapshot struct {
	Name     string
	Armed    bool
	Capacity int
	Prefix   int
	Conns    []ConnSnapshot
}

// Snapshot copies the tap's state: every connection's label, counters, full
// format frames, and ring contents in sequence order. Safe to call while
// capture is running.
func (t *Tap) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	s := Snapshot{Name: t.name, Armed: t.armed.Load(), Capacity: t.capacity, Prefix: t.prefix}
	t.mu.Lock()
	conns := append([]*ConnTap(nil), t.conns...)
	t.mu.Unlock()
	for _, ct := range conns {
		ct.mu.Lock()
		cs := ConnSnapshot{
			ID:       ct.id,
			Label:    ct.label,
			OpenedNS: ct.opened,
			Open:     !ct.closed,
			Formats:  append([][]byte(nil), ct.formats...),
		}
		ct.mu.Unlock()
		cs.Captured = ct.count.Load()
		cs.Dropped = ct.ring.Dropped()
		cs.Records = ct.ring.Snapshot()
		s.Conns = append(s.Conns, cs)
	}
	return s
}
