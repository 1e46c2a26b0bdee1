package bench

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/echo"
	"repro/internal/fanout"
	"repro/internal/fleetgen"
	"repro/internal/pbio"
	"repro/internal/registry"
)

// The fleet experiment is the chaos soak: hundreds of concurrent protocol
// generations (fleetgen lineages evolving mid-stream through add / drop /
// rename / retype / reorder operators), a 3-peer formatd cluster whose
// primary is killed and restarted under load — twice, so a promoted
// successor dies too — an echo broker killed mid-burst and rebound on the
// same address, and legacy pre-registry peers mixed in throughout. The
// whole schedule derives from one seed; re-running with -seed reproduces
// the same lineages, operators, records, and chaos order.
//
// What it asserts, per subscriber and per epoch (an epoch ends when the
// broker dies or the run settles):
//
//   - zero message loss: every sequence number published while a sink was
//     subscribed arrives, except the in-flight tail of a broker-kill burst,
//     which is counted separately (boundary_skipped);
//   - byte-exact delivery per subscriber generation: all sinks registered
//     at the same generation — modern, plain in-band, or v1-compat — must
//     produce identical encodings for the same message;
//   - integrity: every record's check stamp verifies, and re-delivery
//     (duplicates) or intra-generation reordering is an error;
//   - bounded staleness: after every settle point each sink catches up
//     within the deadline, and the worst catch-up time is recorded;
//   - drain: when everything closes, fanout.LiveFrames reaches zero.

// FleetResult is the experiment's JSON document (morphbench -out).
type FleetResult struct {
	Seed        int64 `json:"seed"`
	Lineages    int   `json:"lineages"`
	Generations int   `json:"generations"`
	Subscribers int   `json:"subscribers"`
	LegacyPeers int   `json:"legacy_peers"`

	Published       int64 `json:"published"`
	PublishRejected int64 `json:"publish_rejected"`
	Delivered       int64 `json:"delivered"`

	LostMessages    int64 `json:"lost_messages"`
	ByteMismatches  int64 `json:"byte_mismatches"`
	CheckFailures   int64 `json:"check_failures"`
	DupDeliveries   int64 `json:"dup_deliveries"`
	OrderViolations int64 `json:"order_violations"`
	BoundarySkipped int64 `json:"boundary_skipped"`

	FormatdKills      int   `json:"formatd_kills"`
	BrokerKills       int   `json:"broker_kills"`
	RegisterRetries   int64 `json:"register_retries"`
	FormatdRecoveryNS int64 `json:"formatd_recovery_ns"`
	BrokerRecoveryNS  int64 `json:"broker_recovery_ns"`
	StalenessMaxNS    int64 `json:"staleness_max_ns"`

	LiveFramesAtDrain int64 `json:"live_frames_at_drain"`

	MorphDelivered  uint64  `json:"morph_delivered"`
	MorphRejected   uint64  `json:"morph_rejected"`
	MorphCacheHits  uint64  `json:"morph_cache_hits"`
	MorphCompiled   uint64  `json:"morph_compiled"`
	CacheHitRate    float64 `json:"morph_cache_hit_rate"`
	SpliceHitRate   float64 `json:"splice_hit_rate"`
	ParkedFrames    uint64  `json:"parked_frames"`
	FormatsResolved uint64  `json:"formats_resolved"`
	FormatsInBand   uint64  `json:"formats_in_band"`
	DurationSec     float64 `json:"duration_sec"`

	Notes []string `json:"notes,omitempty"`
}

// fleetLineage is one evolving protocol: its generator, its publisher, and
// the sequence bookkeeping the accounting needs.
type fleetLineage struct {
	idx     int
	src     uint64
	channel string
	gen     *fleetgen.Lineage
	pub     *echo.Subscriber
	dead    bool // broker connection failed; no publishes until rebuild

	nextSeq   uint64
	genStarts []uint64 // genStarts[g] = first seq published at generation g
}

// genOf maps a sequence number to the publisher generation that emitted it.
func (l *fleetLineage) genOf(seq uint64) int {
	g := 0
	for g+1 < len(l.genStarts) && l.genStarts[g+1] <= seq {
		g++
	}
	return g
}

// sinkSlot is one logical subscriber identity. The echo.Subscriber behind it
// is replaced at every broker restart; the slot (and its accounting) lives on.
type sinkSlot struct {
	lin  *fleetLineage
	gen  *fleetgen.Generation
	kind string // "modern", "plain", "v1compat"

	mu       sync.Mutex
	sub      *echo.Subscriber
	joinSeq  uint64   // first seq this slot owes in the current epoch
	arrivals []uint64 // seqs in arrival order, current epoch
}

func (s *sinkSlot) name() string {
	return fmt.Sprintf("%s/gen%d/%s", s.lin.channel, s.gen.Index, s.kind)
}

type digestKey struct {
	src uint64
	gen int
	seq uint64
}

// fleet holds the full running topology plus the shared verification state.
type fleet struct {
	res  *FleetResult
	rng  *rand.Rand
	pace time.Duration

	formatd  []*replicaPeer
	fdAddrs  []string
	fdShards int
	fdHB     time.Duration

	brokerAddr string
	brokerLn   net.Listener
	broker     *echo.Server

	serverRC, resolverRC, pubRC *registry.Client

	lineages []*fleetLineage
	slots    []*sinkSlot

	mu       sync.Mutex // guards digests, counters below, res.Notes, recovery fields
	digests  map[digestKey]uint64
	morph    core.Stats
	canaryWG sync.WaitGroup
}

func (f *fleet) note(format string, args ...any) {
	if len(f.res.Notes) < 20 {
		f.res.Notes = append(f.res.Notes, fmt.Sprintf(format, args...))
	}
}

// FleetSoak runs the chaos soak. quick shrinks the fleet and schedule for CI
// (one formatd kill cycle instead of two, fewer lineages and generations);
// the full run keeps >= 100 concurrent generations live.
// The results are named so the deferred duration stamp lands in the value
// the caller actually receives.
func (h *Harness) FleetSoak(seed int64, quick bool) (res FleetResult, err error) {
	nLineages, startGens, evolutions, ticks, batch := 8, 5, 8, 26, 4
	fdKill2 := 16
	if quick {
		nLineages, startGens, evolutions, ticks, batch = 4, 3, 3, 12, 3
		fdKill2 = -1 // single kill cycle
	}
	fdKill1, fdRestartAfter, brokerKill := 6, 3, ticks/2

	res = FleetResult{Seed: seed, Lineages: nLineages}
	f := &fleet{
		res:      &res,
		rng:      rand.New(rand.NewSource(seed)),
		pace:     8 * time.Millisecond,
		fdShards: 4,
		fdHB:     20 * time.Millisecond,
		digests:  make(map[digestKey]uint64),
	}
	start := time.Now()
	defer func() { res.DurationSec = time.Since(start).Seconds() }()

	// Metadata plane: 3 formatd peers, peer 0 primary.
	peers, addrs, err := startReplicaCluster(3, f.fdHB)
	if err != nil {
		return res, err
	}
	f.formatd, f.fdAddrs = peers, addrs
	defer func() {
		for _, p := range f.formatd {
			if p != nil {
				p.kill()
			}
		}
	}()

	mkRC := func() *registry.Client {
		return registry.NewClusterClient(addrs, f.fdShards,
			registry.WithTimeout(300*time.Millisecond),
			registry.WithBackoff(50*time.Millisecond))
	}
	f.serverRC, f.resolverRC, f.pubRC = mkRC(), mkRC(), mkRC()
	defer func() {
		_ = f.serverRC.Close()
		_ = f.resolverRC.Close()
		_ = f.pubRC.Close()
	}()

	// Data plane: one broker; its address survives restarts.
	if err := f.startBroker(); err != nil {
		return res, err
	}
	defer func() {
		if f.broker != nil {
			_ = f.broker.Close()
		}
	}()

	// The fleet: per lineage, a publisher, one modern sink per generation,
	// one plain in-band legacy sink at gen 0, one v1-compat legacy sink at
	// gen 1.
	for i := 0; i < nLineages; i++ {
		lin := &fleetLineage{
			idx:     i,
			src:     uint64(i + 1),
			channel: fmt.Sprintf("fleet%d", i),
		}
		lin.gen, err = fleetgen.NewLineage(lin.channel, lin.src, seed+int64(i)*7919, 3)
		if err != nil {
			return res, err
		}
		for g := 1; g < startGens; g++ {
			if _, err := lin.gen.Evolve(); err != nil {
				return res, err
			}
		}
		lin.genStarts = []uint64{0}
		// The publisher starts at the latest generation; earlier ones are
		// history its transforms must bridge.
		for range lin.gen.Generations()[1:] {
			lin.genStarts = append(lin.genStarts, 0)
		}
		f.lineages = append(f.lineages, lin)
		if err := f.attachPublisher(lin); err != nil {
			return res, err
		}
		for _, g := range lin.gen.Generations() {
			if err := f.newSlot(lin, g, "modern"); err != nil {
				return res, err
			}
		}
		if err := f.newSlot(lin, lin.gen.Generations()[0], "plain"); err != nil {
			return res, err
		}
		if err := f.newSlot(lin, lin.gen.Generations()[1], "v1compat"); err != nil {
			return res, err
		}
		res.LegacyPeers += 2
	}

	// Evolution schedule: each lineage evolves at distinct, seeded ticks;
	// never on the broker-kill tick (that burst must be park-free so its
	// accounting can split holes from boundary loss).
	evolveAt := make(map[int][]int)
	allowed := make([]int, 0, ticks)
	for t := 1; t < ticks-1; t++ {
		if t != brokerKill {
			allowed = append(allowed, t)
		}
	}
	for i := 0; i < nLineages; i++ {
		perm := f.rng.Perm(len(allowed))
		if len(perm) > evolutions {
			perm = perm[:evolutions]
		}
		for _, p := range perm {
			evolveAt[allowed[p]] = append(evolveAt[allowed[p]], i)
		}
	}
	// Two lineages gain a late plain legacy peer mid-churn, after the broker
	// has already died and come back once.
	lateJoinTick := brokerKill + 2
	lateJoiners := f.rng.Perm(nLineages)[:2]

	for tick := 0; tick < ticks; tick++ {
		switch tick {
		case fdKill1, fdKill2:
			f.killFormatdPrimary()
		case fdKill1 + fdRestartAfter, fdKill2 + fdRestartAfter:
			if err := f.restartFormatd(); err != nil {
				return res, err
			}
		}
		if tick == brokerKill {
			if err := f.brokerKillCycle(batch); err != nil {
				return res, err
			}
			continue
		}
		for _, li := range evolveAt[tick] {
			if err := f.evolve(f.lineages[li]); err != nil {
				return res, err
			}
		}
		if tick == lateJoinTick {
			for _, li := range lateJoiners {
				lin := f.lineages[li]
				hist := lin.gen.Generations()
				if err := f.newSlot(lin, hist[len(hist)/2], "plain"); err != nil {
					return res, err
				}
				res.LegacyPeers++
			}
		}
		for _, lin := range f.lineages {
			for b := 0; b < batch; b++ {
				f.publishOne(lin)
			}
		}
		time.Sleep(f.pace)
	}

	// Final settle: everyone catches up, then the epoch must account clean.
	f.settle()
	f.closeEpoch(false)

	// Tear down and drain.
	for _, s := range f.slots {
		f.retire(s.sub)
		_ = s.sub.Close()
	}
	for _, lin := range f.lineages {
		_ = lin.pub.Close()
	}
	_ = f.broker.Close()
	f.broker = nil
	f.canaryWG.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for fanout.LiveFrames() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	res.LiveFramesAtDrain = fanout.LiveFrames()

	for _, lin := range f.lineages {
		res.Generations += len(lin.gen.Generations())
	}
	res.Subscribers = len(f.slots)
	res.MorphDelivered = f.morph.Delivered
	res.MorphRejected = f.morph.Rejected
	res.MorphCacheHits = f.morph.CacheHits
	res.MorphCompiled = f.morph.Compiled
	if d := f.morph.CacheHits + f.morph.Compiled; d > 0 {
		res.CacheHitRate = float64(f.morph.CacheHits) / float64(d)
	}
	if d := f.morph.SpliceHits + f.morph.SpliceMisses; d > 0 {
		res.SpliceHitRate = float64(f.morph.SpliceHits) / float64(d)
	}
	return res, nil
}

// startBroker binds the broker (re-binding the original address on restart)
// and serves it.
func (f *fleet) startBroker() error {
	addr := f.brokerAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: rebinding broker %s: %w", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.brokerAddr = ln.Addr().String()
	f.brokerLn = ln
	f.broker = echo.NewServer(
		echo.WithRegistry(f.serverRC),
		echo.WithFanoutQueue(4096, fanout.DropNewest),
	)
	srv := f.broker
	go func() { _ = srv.Serve(ln) }()
	return nil
}

// attachPublisher opens (or reopens) a lineage's publisher and re-declares
// its current generation with transforms down to every older one.
func (f *fleet) attachPublisher(lin *fleetLineage) error {
	pub, err := echo.Open(f.brokerAddr, lin.channel, echo.Options{Source: true, Registry: f.pubRC})
	if err != nil {
		return fmt.Errorf("fleet: publisher %s: %w", lin.channel, err)
	}
	// Pump control frames (format re-announcement requests) in the
	// background; a publisher that never reads can't answer a NACK.
	go func() { _ = pub.Run() }()
	lin.pub, lin.dead = pub, false
	return f.declareCurrent(lin)
}

func (f *fleet) declareCurrent(lin *fleetLineage) error {
	latest := lin.gen.Latest()
	hist := lin.gen.Generations()
	xforms := make([]*core.Xform, 0, len(hist)-1)
	for _, g := range hist[:len(hist)-1] {
		x, err := fleetgen.XformBetween(latest, g)
		if err != nil {
			return err
		}
		xforms = append(xforms, x)
	}
	lin.pub.Declare(latest.Format, xforms...)
	return nil
}

// evolve advances a lineage one generation, declares the new format (with
// transforms to all prior generations), and spawns the new generation's
// modern sink.
func (f *fleet) evolve(lin *fleetLineage) error {
	if _, err := lin.gen.Evolve(); err != nil {
		return err
	}
	lin.genStarts = append(lin.genStarts, lin.nextSeq)
	if !lin.dead {
		if err := f.declareCurrent(lin); err != nil {
			return err
		}
	}
	return f.newSlot(lin, lin.gen.Latest(), "modern")
}

// newSlot creates a logical subscriber and attaches a live connection to it.
func (f *fleet) newSlot(lin *fleetLineage, gen *fleetgen.Generation, kind string) error {
	s := &sinkSlot{lin: lin, gen: gen, kind: kind}
	if err := f.attach(s); err != nil {
		return err
	}
	f.slots = append(f.slots, s)
	return nil
}

// attach opens a fresh echo.Subscriber for the slot. Strict thresholds: a
// fleet sink accepts exact matches and declared transform routes only, so a
// missing transform becomes a rejected (and therefore lost) message instead
// of a silently lossy name-wise conversion.
func (f *fleet) attach(s *sinkSlot) error {
	strict := core.Thresholds{}
	opts := echo.Options{Sink: true, Thresholds: &strict}
	switch s.kind {
	case "modern":
		opts.Registry = f.resolverRC
	case "v1compat":
		opts.V1Compat = true
	}
	sub, err := echo.Open(f.brokerAddr, s.lin.channel, opts)
	if err != nil {
		return fmt.Errorf("fleet: sink %s: %w", s.name(), err)
	}
	if err := sub.Handle(s.gen.Format, func(r *pbio.Record) error {
		f.onDeliver(s, r)
		return nil
	}); err != nil {
		_ = sub.Close()
		return err
	}
	s.mu.Lock()
	s.sub = sub
	s.joinSeq = s.lin.nextSeq
	s.arrivals = s.arrivals[:0]
	s.mu.Unlock()
	go func() { _ = sub.Run() }()
	return nil
}

// onDeliver is every sink's handler: verify the integrity stamp, digest the
// morphed encoding, and cross-check it against every other sink registered
// at the same generation.
func (f *fleet) onDeliver(s *sinkSlot, r *pbio.Record) {
	src, seq, err := fleetgen.Verify(r)
	d := fnv.New64a()
	_, _ = d.Write(pbio.EncodeRecord(r))
	sum := d.Sum64()

	f.mu.Lock()
	f.res.Delivered++
	if err != nil || src != s.lin.src {
		f.res.CheckFailures++
		if err == nil {
			err = fmt.Errorf("src %d on channel %s", src, s.lin.channel)
		}
		f.note("%s: %v", s.name(), err)
	}
	key := digestKey{src: s.lin.src, gen: s.gen.Index, seq: seq}
	if ref, ok := f.digests[key]; ok {
		if ref != sum {
			f.res.ByteMismatches++
			f.note("%s: seq %d encoding differs from sibling at gen %d", s.name(), seq, s.gen.Index)
		}
	} else {
		f.digests[key] = sum
	}
	f.mu.Unlock()

	s.mu.Lock()
	s.arrivals = append(s.arrivals, seq)
	s.mu.Unlock()
}

// publishOne publishes the next record of the lineage's current generation.
func (f *fleet) publishOne(lin *fleetLineage) {
	if lin.dead {
		f.res.PublishRejected++
		return
	}
	rec := lin.gen.Latest().NewRecord(lin.nextSeq)
	if err := lin.pub.Publish(rec); err != nil {
		f.res.PublishRejected++
		lin.dead = true
		return
	}
	lin.nextSeq++
	f.res.Published++
}

// killFormatdPrimary takes the current primary down the way SIGKILL would
// and starts a canary measuring how long writes stay unavailable.
func (f *fleet) killFormatdPrimary() {
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, p := range f.formatd {
			if p != nil && p.srv != nil && p.srv.Role() == registry.RolePrimary {
				p.kill()
				f.res.FormatdKills++
				f.canaryRecovery(f.res.FormatdKills)
				return
			}
		}
		if time.Now().After(deadline) {
			f.mu.Lock()
			f.note("formatd: no primary to kill")
			f.mu.Unlock()
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// canaryRecovery registers fresh formats through the cluster until one is
// acknowledged again, recording the write blackout and every retry.
func (f *fleet) canaryRecovery(kill int) {
	t0 := time.Now()
	f.canaryWG.Add(1)
	go func() {
		defer f.canaryWG.Done()
		c := registry.NewClusterClient(f.fdAddrs, f.fdShards,
			registry.WithWatchDisabled(),
			registry.WithTimeout(200*time.Millisecond),
			registry.WithBackoff(20*time.Millisecond))
		defer c.Close()
		for i := 0; ; i++ {
			cf, err := replicaFormat(fmt.Sprintf("fleet_canary_%d_%d", kill, i), i)
			if err != nil {
				return
			}
			if err := c.Register(cf); err == nil {
				break
			}
			f.mu.Lock()
			f.res.RegisterRetries++
			f.mu.Unlock()
			time.Sleep(10 * time.Millisecond)
		}
		rec := time.Since(t0).Nanoseconds()
		f.mu.Lock()
		if rec > f.res.FormatdRecoveryNS {
			f.res.FormatdRecoveryNS = rec
		}
		f.mu.Unlock()
	}()
}

// restartFormatd brings every dead peer back on its old address; the
// survivors' replication stream resyncs it.
func (f *fleet) restartFormatd() error {
	for i, p := range f.formatd {
		if p != nil && p.srv != nil {
			continue
		}
		var ln net.Listener
		var err error
		deadline := time.Now().Add(5 * time.Second)
		for {
			ln, err = net.Listen("tcp", f.fdAddrs[i])
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("fleet: rebinding formatd %d: %w", i, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		srv, err := registry.NewServer(registry.WithPeers(f.fdAddrs, i, f.fdHB))
		if err != nil {
			_ = ln.Close()
			return err
		}
		f.formatd[i] = &replicaPeer{srv: srv, ln: ln}
		go func() { _ = srv.Serve(ln) }()
	}
	return nil
}

// brokerKillCycle is the broker chaos step: settle so the epoch is clean,
// kill the broker halfway through a publish burst (the remainder of the
// burst is rejected, the in-flight prefix becomes boundary loss), account
// the dead epoch, then rebind, rebuild every member, and prove the rebuilt
// fleet delivers again — that round trip is the broker recovery time.
func (f *fleet) brokerKillCycle(batch int) error {
	f.settle()
	t0 := time.Now()
	for i, lin := range f.lineages {
		for b := 0; b < batch; b++ {
			f.publishOne(lin)
		}
		if i == len(f.lineages)/2 {
			_ = f.broker.Close()
			f.broker = nil
			f.res.BrokerKills++
		}
	}
	// Give in-flight frames a moment to land or die with their connections.
	time.Sleep(100 * time.Millisecond)
	f.closeEpoch(true)

	if err := f.startBroker(); err != nil {
		return err
	}
	for _, lin := range f.lineages {
		_ = lin.pub.Close()
		if err := f.attachPublisher(lin); err != nil {
			return err
		}
	}
	for _, s := range f.slots {
		f.retire(s.sub)
		_ = s.sub.Close()
		if err := f.attach(s); err != nil {
			return err
		}
	}
	for _, lin := range f.lineages {
		f.publishOne(lin)
	}
	f.settle()
	if rec := time.Since(t0).Nanoseconds(); rec > f.res.BrokerRecoveryNS {
		f.res.BrokerRecoveryNS = rec
	}
	return nil
}

// settle waits until every slot has received every sequence number from its
// join point through the last publish of its lineage, recording the slowest
// catch-up as staleness. A slot that misses the deadline is noted; the loss
// itself is charged once, by the epoch audit (closeEpoch), which sees the
// same holes.
func (f *fleet) settle() {
	start := time.Now()
	deadline := start.Add(10 * time.Second)
	for _, s := range f.slots {
		target := s.lin.nextSeq // exclusive
		for {
			missing := f.missing(s, target)
			if missing == 0 {
				break
			}
			if time.Now().After(deadline) {
				f.mu.Lock()
				f.note("%s: settle timed out, %d missing of [%d,%d)", s.name(), missing, s.joinSeq, target)
				f.mu.Unlock()
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if ns := time.Since(start).Nanoseconds(); ns > f.res.StalenessMaxNS {
			f.res.StalenessMaxNS = ns
		}
	}
}

// missing counts sequence numbers in [joinSeq, target) the slot has not yet
// received.
func (f *fleet) missing(s *sinkSlot, target uint64) int {
	s.mu.Lock()
	got := make(map[uint64]bool, len(s.arrivals))
	for _, q := range s.arrivals {
		got[q] = true
	}
	join := s.joinSeq
	s.mu.Unlock()
	n := 0
	for q := join; q < target; q++ {
		if !got[q] {
			n++
		}
	}
	return n
}

// closeEpoch audits every slot's arrival log for the finished epoch. Holes
// below the highest received sequence are lost messages in every epoch kind:
// the schedule keeps the broker-kill burst park-free, so nothing can legally
// overtake inside it. The missing tail is boundary loss when the broker was
// killed (frames died in flight) and lost otherwise. Duplicates and
// intra-generation reordering are always errors.
func (f *fleet) closeEpoch(killed bool) {
	for _, s := range f.slots {
		s.mu.Lock()
		arrivals := append([]uint64(nil), s.arrivals...)
		join := s.joinSeq
		s.mu.Unlock()
		last := s.lin.nextSeq // exclusive

		got := make(map[uint64]int, len(arrivals))
		var maxSeq uint64
		for _, q := range arrivals {
			got[q]++
			if q > maxSeq {
				maxSeq = q
			}
		}

		f.mu.Lock()
		for q, n := range got {
			if n > 1 {
				f.res.DupDeliveries += int64(n - 1)
				f.note("%s: seq %d delivered %d times", s.name(), q, n)
			}
		}
		// Intra-generation order: arrival order must be increasing among
		// sequence numbers of the same publisher generation (park replay may
		// legally reorder across generations, never within one).
		lastByGen := make(map[int]uint64)
		for _, q := range arrivals {
			g := s.lin.genOf(q)
			if prev, ok := lastByGen[g]; ok && q <= prev {
				f.res.OrderViolations++
				f.note("%s: gen %d seq %d arrived after %d", s.name(), g, q, prev)
			}
			lastByGen[g] = q
		}
		if len(arrivals) == 0 {
			if n := int64(last) - int64(join); n > 0 {
				if killed {
					f.res.BoundarySkipped += n
				} else {
					f.res.LostMessages += n
					f.note("%s: received nothing of [%d,%d)", s.name(), join, last)
				}
			}
			f.mu.Unlock()
			continue
		}
		for q := join; q <= maxSeq; q++ {
			if got[q] == 0 {
				f.res.LostMessages++
				f.note("%s: hole at seq %d (max received %d)", s.name(), q, maxSeq)
			}
		}
		if tail := int64(last) - int64(maxSeq) - 1; tail > 0 {
			if killed {
				f.res.BoundarySkipped += tail
			} else {
				f.res.LostMessages += tail
				f.note("%s: tail [%d,%d) never arrived", s.name(), maxSeq+1, last)
			}
		}
		f.mu.Unlock()
	}
}

// retire folds a dying subscriber's morph and wire counters into the run
// totals before the connection is discarded.
func (f *fleet) retire(sub *echo.Subscriber) {
	ms := sub.Morpher().Stats()
	ws := sub.WireStats()
	f.mu.Lock()
	f.morph.Delivered += ms.Delivered
	f.morph.CacheHits += ms.CacheHits
	f.morph.Compiled += ms.Compiled
	f.morph.Transformed += ms.Transformed
	f.morph.Converted += ms.Converted
	f.morph.Rejected += ms.Rejected
	f.morph.SpliceHits += ms.SpliceHits
	f.morph.SpliceMisses += ms.SpliceMisses
	f.res.ParkedFrames += ws.ParkedFrames
	f.res.FormatsResolved += ws.FormatsResolved
	f.res.FormatsInBand += ws.FormatFramesRecv
	f.mu.Unlock()
}

// PrintFleet renders the soak as the paper-style text block.
func PrintFleet(w io.Writer, r FleetResult) {
	fmt.Fprintf(w, "Fleet. Chaos soak, seed %d (%d lineages, %d generations, %d subscribers, %d legacy)\n",
		r.Seed, r.Lineages, r.Generations, r.Subscribers, r.LegacyPeers)
	fmt.Fprintf(w, "  traffic:    %d published (%d rejected during outages), %d delivered\n",
		r.Published, r.PublishRejected, r.Delivered)
	fmt.Fprintf(w, "  integrity:  %d lost, %d byte mismatches, %d check failures, %d dups, %d order violations (%d boundary-skipped at kills)\n",
		r.LostMessages, r.ByteMismatches, r.CheckFailures, r.DupDeliveries, r.OrderViolations, r.BoundarySkipped)
	fmt.Fprintf(w, "  chaos:      %d formatd kills (recovery max %s, %d write retries), %d broker kills (recovery max %s)\n",
		r.FormatdKills, time.Duration(r.FormatdRecoveryNS), r.RegisterRetries,
		r.BrokerKills, time.Duration(r.BrokerRecoveryNS))
	fmt.Fprintf(w, "  staleness:  max settle %s; live frames at drain %d\n",
		time.Duration(r.StalenessMaxNS), r.LiveFramesAtDrain)
	fmt.Fprintf(w, "  morphing:   %d delivered (%d rejected), cache hit rate %.3f, splice hit rate %.3f, %d parked frames, %d resolved / %d in-band formats\n",
		r.MorphDelivered, r.MorphRejected, r.CacheHitRate, r.SpliceHitRate,
		r.ParkedFrames, r.FormatsResolved, r.FormatsInBand)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note:       %s\n", n)
	}
	fmt.Fprintln(w)
}
