package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/echo"
	"repro/internal/fanout"
	"repro/internal/fleetgen"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/registry"
)

const (
	// queueCap is the broker's per-sink queue (DropNewest): four times the
	// closed-loop window, so a drop is always a failure and never a stall.
	queueCap = 1024
	window   = 256
	// creditBatch: a handler returns credit to the generator once per this
	// many fully delivered messages, so the capacity phase pays one channel
	// hand-off per 32 messages instead of one per message.
	creditBatch = 32

	// ringSize bounds the messages in flight whose send time and
	// acknowledgement count are tracked; far above queueCap plus what the
	// socket buffers hold.
	ringSize = 1 << 16
	ringMask = ringSize - 1

	// latCap is each sink's preallocated latency sample buffer; a phase
	// that would overflow it stops sampling (counted, never reallocated,
	// so the harness's own heap stays constant during a run).
	latCap = 1 << 19

	// channelID is the one event channel every member joins.
	channelID = "bench"

	burstTick = 4 * time.Millisecond
	probeWait = 2 * time.Millisecond
)

var errDeadline = errors.New("phase deadline expired with deliveries outstanding")

// scratch is the harness's own bulk memory, allocated once per process and
// reused by every rig so that it sits in the heap baseline instead of in
// retained_heap_mb. sendNS[n&ringMask] is when message n was (or was due to
// be) sent; acks counts the sinks that have handled it.
type scratch struct {
	sendNS [ringSize]atomic.Int64
	acks   [ringSize]atomic.Int32
	lat    [nSinks][]uint32
	merged []uint32
}

func newScratch() *scratch {
	sc := &scratch{merged: make([]uint32, 0, nSinks*latCap)}
	for i := range sc.lat {
		sc.lat[i] = make([]uint32, 0, latCap)
	}
	return sc
}

// sink is one subscriber and the oracle for what it receives. The counters
// are written by the subscriber's Run goroutine only and read after it has
// drained (the credit hand-off orders the two).
type sink struct {
	r    *rig
	i    int
	spec sinkSpec
	sub  *echo.Subscriber

	joined    bool
	joinN     uint64 // first message seen
	next      uint64 // next message expected
	delivered atomic.Uint64
	missing   uint64 // gaps in seq
	reordered uint64 // duplicated or out of order
	corrupt   uint64 // wrong src, bad check stamp, or reference mismatch
	lat       []uint32
	latLost   uint64
}

// rig is one assembled system: broker, optional registry, one publisher and
// four sinks, all goroutines of this process on loopback TCP.
type rig struct {
	wl     *workload
	src    *source
	obsReg *obs.Registry // layer runs only: the broker's drop and flush counters

	base    time.Time
	addr    string
	srv     *echo.Server
	regSrv  *registry.Server
	regAddr string
	clients []*registry.Client
	pub     *echo.Subscriber
	sinks   [nSinks]*sink
	running sync.WaitGroup // Serve and Run goroutines

	// Generator ↔ handler state.
	*scratch
	timing     atomic.Bool
	batch      atomic.Uint64
	phaseStart atomic.Uint64
	// credits carries one token per batch of fully delivered messages.
	// Sized for every token an open-loop burst can have outstanding.
	credits chan struct{}

	published   uint64 // next message index
	publishErrs uint64
	curFormat   *pbio.Format // the publisher's latest format declared with its full route to the sinks
	want        *reference   // nil once the deep-checked messages are behind
	openNS      []float64
	pubNS       []float64 // non-nil: every 16th Publish call is timed into it
	aborted     error
}

func (r *rig) clock() int64 { return int64(time.Since(r.base)) }

// reference is the offline oracle: what each sink must receive for each of
// the first deepChecked messages.
type reference [nSinks][]*pbio.Record

// precomputeReference replays the source from n = 0, which sources allow.
func precomputeReference(src *source) (*reference, error) {
	var want reference
	for i := range want {
		want[i] = make([]*pbio.Record, deepChecked)
	}
	for n := uint64(0); n < deepChecked; n++ {
		rec, _ := src.next(n)
		for i := range want {
			w, err := src.reference(i, n, rec)
			if err != nil {
				return nil, fmt.Errorf("reference for sink %d message %d: %w", i, n, err)
			}
			want[i][n] = w
		}
	}
	return &want, nil
}

// newRig assembles the system and publishes probe messages until one has
// reached all four sinks (Open does not yet guarantee returned ⇒
// subscribed). The returned duration covers listeners, opens, declares and
// that first full delivery: cold MaxMatch and Ecode compile included.
func newRig(wl *workload, src *source, sc *scratch, want *reference, obsReg *obs.Registry) (*rig, time.Duration, error) {
	r := &rig{wl: wl, src: src, scratch: sc, want: want, obsReg: obsReg, credits: make(chan struct{}, 1<<14)}
	for i := range sc.acks {
		sc.acks[i].Store(0)
	}
	for i := range r.sinks {
		r.sinks[i] = &sink{r: r, i: i, spec: src.sinks[i], lat: sc.lat[i][:0]}
	}
	r.base = time.Now()
	if err := r.assemble(); err != nil {
		r.close()
		return nil, 0, err
	}
	if err := r.probe(); err != nil {
		r.close()
		return nil, 0, err
	}
	return r, time.Since(r.base), nil
}

func (r *rig) assemble() error {
	var sopts []echo.ServerOption
	sopts = append(sopts, echo.WithFanoutQueue(queueCap, fanout.DropNewest), echo.WithObs(r.obsReg))
	newClient := func() *registry.Client { return nil }
	if r.wl.registry {
		rs, err := registry.NewServer(registry.WithServerObs(r.obsReg))
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		r.regSrv, r.regAddr = rs, ln.Addr().String()
		r.running.Add(1)
		go func() { defer r.running.Done(); _ = rs.Serve(ln) }()
		newClient = func() *registry.Client {
			c := registry.NewClient(r.regAddr)
			r.clients = append(r.clients, c)
			return c
		}
		sopts = append(sopts, echo.WithRegistry(newClient()))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.addr = ln.Addr().String()
	r.srv = echo.NewServer(sopts...)
	r.running.Add(1)
	go func() { defer r.running.Done(); _ = r.srv.Serve(ln) }()

	for _, s := range r.sinks {
		opts := echo.Options{Sink: true, Registry: newClient()}
		if s.spec.strict {
			opts.Thresholds = &core.Thresholds{}
		}
		t0 := time.Now()
		sub, err := echo.Open(r.addr, channelID, opts)
		if err != nil {
			return fmt.Errorf("sink %d: %w", s.i, err)
		}
		r.openNS = append(r.openNS, float64(time.Since(t0)))
		s.sub = sub
		if s.spec.format != nil {
			if err := s.register(s.spec.format); err != nil {
				return err
			}
		}
		r.running.Add(1)
		go func() { defer r.running.Done(); _ = sub.Run() }()
	}
	t0 := time.Now()
	pub, err := echo.Open(r.addr, channelID, echo.Options{Source: true, Registry: newClient()})
	if err != nil {
		return fmt.Errorf("publisher: %w", err)
	}
	r.openNS = append(r.openNS, float64(time.Since(t0)))
	r.pub = pub
	// The publisher reads too: format re-announcement requests arrive on
	// its connection.
	r.running.Add(1)
	go func() { defer r.running.Done(); _ = pub.Run() }()
	return nil
}

// register installs the sink's handler for f: byte-level for encoded
// vintages, record-level otherwise.
func (s *sink) register(f *pbio.Format) error {
	for i, p := range protected {
		if f.Field(i).Name != p.Name {
			return fmt.Errorf("sink %d: format %q does not lead with the protected fields", s.i, f.Name())
		}
	}
	if s.spec.encoded {
		return s.sub.Morpher().RegisterFormatEncoded(f, s.onEncoded)
	}
	return s.sub.Handle(f, s.onRecord)
}

func (s *sink) onRecord(rec *pbio.Record) error {
	now := s.r.clock()
	n := s.arrive(now, rec.GetIndex(idxSrc).Uint64(), rec.GetIndex(idxSeq).Uint64(), rec.GetIndex(idxCheck).Uint64())
	if n < deepChecked && s.r.want != nil && !rec.Equal(s.r.want[s.i][n]) {
		s.corrupt++
	}
	s.ack(n)
	return nil
}

func (s *sink) onEncoded(data []byte, f *pbio.Format) error {
	now := s.r.clock()
	const trio = pbio.EnvelopeSize + 3*8
	if len(data) < trio {
		s.corrupt++
		return nil
	}
	p := data[pbio.EnvelopeSize:]
	n := s.arrive(now, binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:]), binary.LittleEndian.Uint64(p[16:]))
	if n < deepChecked && s.r.want != nil {
		if rec, err := pbio.DecodeRecord(data, f); err != nil || !rec.Equal(s.r.want[s.i][n]) {
			s.corrupt++
		}
	}
	s.ack(n)
	return nil
}

// arrive checks one delivery's attribution, integrity and order, samples
// its latency in timed phases, and returns its message index.
func (s *sink) arrive(now int64, src, seq, check uint64) uint64 {
	r := s.r
	n := seq - r.src.seq0
	if !s.joined {
		s.joined, s.joinN, s.next = true, n, n
	}
	switch {
	case n == s.next:
		s.next++
	case n > s.next:
		s.missing += n - s.next
		s.next = n + 1
	default:
		s.reordered++
	}
	if src != r.src.src || check != fleetgen.Check(src, seq) {
		s.corrupt++
	}
	s.delivered.Add(1)
	if r.timing.Load() {
		if len(s.lat) < cap(s.lat) {
			s.lat = append(s.lat, uint32(now-r.sendNS[n&ringMask].Load()))
		} else {
			s.latLost++
		}
	}
	return n
}

// ack records that this sink is done with message n; the last of the four
// sinks returns a credit token at every batch boundary. Sinks handle
// messages in order, so message n completing means every earlier one has.
func (s *sink) ack(n uint64) {
	r := s.r
	a := &r.acks[n&ringMask]
	if a.Add(1) != nSinks {
		return
	}
	a.Store(0)
	if (n-r.phaseStart.Load()+1)%r.batch.Load() == 0 {
		r.credits <- struct{}{}
	}
}

// publish sends message n, declaring its format first when it is new.
func (r *rig) publish(n uint64, stampNS int64) {
	rec, decl := r.src.next(n)
	if decl != nil {
		if decl.sinkFormat != nil {
			for _, s := range r.sinks {
				must(s.register(decl.sinkFormat))
			}
		}
		r.pub.Declare(decl.format, decl.xforms...)
		if len(decl.xforms) > 0 || decl.sinkFormat == nil {
			r.curFormat = decl.format
		}
		if stampNS >= 0 {
			// Latency runs from just before Publish: a Declare's registry
			// round trip is the publisher's cost, not the delivery's.
			stampNS = r.clock()
		}
	}
	if stampNS >= 0 {
		r.sendNS[n&ringMask].Store(stampNS)
	}
	var t0 time.Time
	sampled := r.pubNS != nil && n%16 == 0 && len(r.pubNS) < cap(r.pubNS)
	if sampled {
		t0 = time.Now()
	}
	if err := r.pub.Publish(rec); err != nil {
		r.publishErrs++
	}
	if sampled {
		r.pubNS = append(r.pubNS, float64(time.Since(t0)))
	}
}

// probe publishes one message at a time until one is handled by all four
// sinks, then waits for any later probes to settle.
func (r *rig) probe() error {
	r.batch.Store(1)
	r.phaseStart.Store(0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.publish(r.published, -1)
		r.published++
		wait := time.NewTimer(probeWait)
		err := r.waitCredit(wait)
		wait.Stop()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("setup: no probe reached all %d sinks in 10 s", nSinks)
		}
	}
	// Sinks handle messages in order, so the first token belongs to the
	// first probe every sink saw: the latest join point. (Each sink wrote
	// its joinN before the ack that led to the token.) Every later probe
	// yields a token too.
	first := uint64(0)
	for _, s := range r.sinks {
		if s.joinN > first {
			first = s.joinN
		}
	}
	settled := time.NewTimer(5 * time.Second)
	defer settled.Stop()
	for n := first + 1; n < r.published; n++ {
		if err := r.waitCredit(settled); err != nil {
			return err
		}
	}
	// Probes some sinks missed left partial counts behind.
	for n := uint64(0); n < first; n++ {
		r.acks[n&ringMask].Store(0)
	}
	return nil
}

// waitCredit blocks until a credit token arrives or the timer fires.
func (r *rig) waitCredit(deadline *time.Timer) error {
	select {
	case <-r.credits:
		return nil
	case <-deadline.C:
		return errDeadline
	}
}

// closedLoop publishes with at most win messages in flight for dur, or
// until limit messages are out if limit is not 0, then waits for every
// delivery. It returns the number of messages published. The whole call is
// abandoned after twice dur.
func (r *rig) closedLoop(win, batch int, dur time.Duration, limit int) (int, error) {
	if r.aborted != nil {
		return 0, r.aborted
	}
	r.batch.Store(uint64(batch))
	r.phaseStart.Store(r.published)
	timed := r.timing.Load()
	until := r.clock() + int64(dur)
	deadline := time.NewTimer(2*dur + time.Second)
	defer deadline.Stop()
	credit, sent := win, 0
	for {
		if credit == 0 {
			if err := r.waitCredit(deadline); err != nil {
				r.aborted = err
				return sent, err
			}
			credit += batch
			continue
		}
		stampNS := int64(-1)
		if timed || sent%batch == 0 {
			now := r.clock()
			if sent%batch == 0 && (now >= until || limit != 0 && sent >= limit) {
				break
			}
			if timed {
				stampNS = now
			}
		}
		r.publish(r.published, stampNS)
		r.published++
		credit--
		sent++
	}
	for credit < win {
		if err := r.waitCredit(deadline); err != nil {
			r.aborted = err
			return sent, err
		}
		credit += batch
	}
	return sent, nil
}

// burst sends rate messages per second in burstTick quotas for dur, open
// loop: each message is timed from its tick's due time. It returns the p99
// of the generator's own lateness, in ns: how long after a tick was due its
// quota started going out.
func (r *rig) burst(rate int, dur time.Duration) (lagP99 float64, err error) {
	if r.aborted != nil {
		return 0, r.aborted
	}
	deadline := time.NewTimer(2*dur + time.Second)
	defer deadline.Stop()
	quota := int(float64(rate) * burstTick.Seconds())
	if quota < 1 {
		quota = 1
	}
	ticks := int(dur / burstTick)
	r.batch.Store(uint64(quota))
	r.phaseStart.Store(r.published)
	start := r.clock() + int64(burstTick)
	lags := make([]uint32, 0, ticks)
	for k := 0; k < ticks; k++ {
		due := start + int64(k)*int64(burstTick)
		now := r.clock()
		if wait := due - now; wait > 0 {
			time.Sleep(time.Duration(wait))
			now = r.clock()
		}
		lags = append(lags, uint32(now-due))
		for q := 0; q < quota; q++ {
			r.publish(r.published, due)
			r.published++
		}
	}
	for k := 0; k < ticks; k++ {
		if err := r.waitCredit(deadline); err != nil {
			r.aborted = err
			return 0, err
		}
	}
	slices.Sort(lags)
	return percentile(lags, 0.99), nil
}

// takeLatencies returns every sink's samples since the last call, merged
// and sorted, and resets the buffers; the result is valid until the next
// call. The buffers belong to the sinks' goroutines until the rig has
// drained, so an aborted rig (deliveries still outstanding) yields nothing.
func (r *rig) takeLatencies() []uint32 {
	if r.aborted != nil {
		return nil
	}
	m := r.merged[:0]
	for _, s := range r.sinks {
		m = append(m, s.lat...)
		s.lat = s.lat[:0]
	}
	slices.Sort(m)
	return m
}

// checkLanes verifies, on a drained rig, that each sink's deliveries took
// the lane its vintage is meant to exercise.
func (r *rig) checkLanes() error {
	for _, s := range r.sinks {
		m := s.sub.Morpher()
		ex, err := m.Explain(r.curFormat)
		if err != nil {
			return fmt.Errorf("sink %d: explain: %w", s.i, err)
		}
		st, n := m.Stats(), s.delivered.Load()
		static := s.spec.format != nil
		ok := !ex.Rejected && st.Rejected == 0
		switch s.spec.lane {
		case laneIdentity:
			ok = ok && ex.ChainLen == 0 && ex.Perfect && st.Transformed == 0 && st.Converted == 0
		case laneSplice:
			ok = ok && ex.ChainLen == 0 && !ex.Perfect && st.SpliceHits == n && st.Converted == 0
		case laneRecord:
			ok = ok && ex.ChainLen == 0 && !ex.Perfect && st.Converted == n
		case laneXform:
			// A churning publisher's latest generation may happen to be a
			// perfect name-wise match (only reorders and retypes so far in
			// its lineage); its sinks are held to having run transforms.
			ok = ok && st.Transformed > 0 && (!static || ex.ChainLen == 1 && st.Transformed == n)
		case laneChain:
			ok = ok && ex.ChainLen == 2 && st.Transformed == n
		}
		if !ok {
			return fmt.Errorf("sink %d is not on the %s lane: explain %+v, stats %v, delivered %d", s.i, s.spec.lane, ex, st, n)
		}
	}
	return nil
}

// morphStats sums the four sinks' engine counters.
func (r *rig) morphStats() (sum core.Stats, byLane map[string]uint64) {
	byLane = map[string]uint64{}
	for _, s := range r.sinks {
		st := s.sub.Morpher().Stats()
		sum.Delivered += st.Delivered
		sum.CacheHits += st.CacheHits
		sum.Compiled += st.Compiled
		sum.Transformed += st.Transformed
		sum.Converted += st.Converted
		sum.Rejected += st.Rejected
		sum.SpliceHits += st.SpliceHits
		sum.SpliceMisses += st.SpliceMisses
		// Engine counters by what the engine did: a transform ran, bytes
		// were spliced (identity pass-through counts as a splice hit on
		// the sink whose plan is the identity), or a record was decoded
		// with no transform.
		byLane["xform"] += st.Transformed
		if s.spec.lane == laneIdentity {
			byLane["identity"] += st.SpliceHits
		} else {
			byLane["splice"] += st.SpliceHits
		}
		byLane["record"] += st.SpliceMisses - st.Transformed
	}
	return sum, byLane
}

// tally is a run's delivery accounting.
type tally struct {
	attempted, failed uint64
	detail            string
}

// close tears the system down and waits for every goroutine it started.
func (r *rig) close() {
	if r.pub != nil {
		_ = r.pub.Close()
	}
	for _, s := range r.sinks {
		if s != nil && s.sub != nil {
			_ = s.sub.Close()
		}
	}
	if r.srv != nil {
		_ = r.srv.Close()
	}
	for _, c := range r.clients {
		_ = c.Close()
	}
	if r.regSrv != nil {
		_ = r.regSrv.Close()
	}
	r.running.Wait()
}

// finish closes the rig and settles the account: every message from a
// sink's join point on is an attempted delivery, and anything missing,
// reordered, corrupt, rejected or unpublished is a failure. It also checks
// that the listeners are gone.
func (r *rig) finish() tally {
	var rejected uint64
	for _, s := range r.sinks {
		rejected += s.sub.Morpher().Stats().Rejected
	}
	r.close()
	var t tally
	var missing, reordered, corrupt, lost uint64
	for _, s := range r.sinks {
		if !s.joined {
			s.next = 0
		}
		t.attempted += r.published - s.joinN
		missing += s.missing + (r.published - s.next)
		reordered += s.reordered
		corrupt += s.corrupt
		lost += s.latLost
	}
	t.failed = missing + reordered + corrupt + rejected + r.publishErrs
	for _, addr := range []string{r.addr, r.regAddr} {
		if addr == "" {
			continue
		}
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			_ = c.Close()
			t.failed++
			t.detail += fmt.Sprintf(" listener %s still accepting;", addr)
		}
	}
	if t.failed > 0 || r.aborted != nil || lost > 0 {
		t.detail += fmt.Sprintf(" missing=%d reordered=%d corrupt=%d rejected=%d publish_errors=%d latency_samples_lost=%d aborted=%v",
			missing, reordered, corrupt, rejected, r.publishErrs, lost, r.aborted)
	}
	if r.aborted != nil && t.failed == 0 {
		t.failed = 1
	}
	return t
}

// leakCheck gives closing connections up to a second to let go, then
// reports frames still referenced and goroutines beyond the count taken
// before the workload started.
func leakCheck(goroutinesBefore int) (liveFrames int64, leaked int) {
	for i := 0; i < 500 && (fanout.LiveFrames() != 0 || runtime.NumGoroutine() > goroutinesBefore); i++ {
		time.Sleep(2 * time.Millisecond)
	}
	if n := runtime.NumGoroutine() - goroutinesBefore; n > 0 {
		leaked = n
	}
	return fanout.LiveFrames(), leaked
}
