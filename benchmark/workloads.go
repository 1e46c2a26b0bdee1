package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/echo"
	"repro/internal/ecode"
	"repro/internal/fleetgen"
	"repro/internal/pbio"
)

const (
	nSinks = 4

	// deepChecked is how many of a run's first messages have every delivery
	// compared field by field against an offline reference conversion.
	deepChecked = 1000

	// poolSize records are generated per format from the seed and cycled,
	// with seq/check re-stamped per message, so record construction does
	// not compete with the system under test for the two cores.
	poolSize = 256

	// format_churn: the publisher's format evolves every churnEvery
	// messages, and after churnEpoch generations a fresh lineage starts.
	// A single unbounded lineage random-walks its field count with the
	// seed (±24 fields after 1.5k generations), which would make cost a
	// property of the seed; epochs keep the mean record size seed-free.
	churnEvery = 256
	churnEpoch = 16
)

// Lanes a sink's deliveries can take, as asserted after warm-up.
const (
	laneIdentity = "identity" // same structure: bytes pass through (or plain decode for record handlers)
	laneSplice   = "splice"   // name-wise conversion compiled to byte copies
	laneRecord   = "record"   // name-wise conversion over a decoded record
	laneXform    = "xform"    // one declared Ecode transform
	laneChain    = "chain"    // two chained Ecode transforms
)

// sinkSpec is one sink's vintage: the format it registers, how, and the
// lane its deliveries are meant to take.
type sinkSpec struct {
	format  *pbio.Format // nil when the source announces sink formats as it goes (format_churn)
	encoded bool         // RegisterFormatEncoded (byte-level consumer) instead of a record handler
	strict  bool         // Thresholds{}: perfect matches and declared transforms only
	lane    string
}

// declaration is what the publisher must Declare before the message that
// carries it: a format it has not sent yet, with its transforms. When
// sinkFormat is set every sink registers that format first (format_churn's
// sinks are pinned at generation 0 of each lineage).
type declaration struct {
	format     *pbio.Format
	xforms     []*core.Xform
	sinkFormat *pbio.Format
}

// source is one seeded instance of a workload: formats, sink vintages and
// the message sequence. Every record it hands out is a pure function of
// (seed, n). It is used from one goroutine at a time.
type source struct {
	src   uint64 // publisher identity stamped into every record
	seq0  uint64 // seq of message 0; derived from the seed
	sinks [nSinks]sinkSpec

	// next returns message n and, when n is the first message of a format,
	// its declaration. The record is pooled: it is valid until the next call.
	next func(n uint64) (*pbio.Record, *declaration)

	// reference converts message n's record to what sink i must receive,
	// using core.NewConverter / ecode.Program.Run directly — the offline
	// oracle the deliveries are compared against.
	reference func(i int, n uint64, rec *pbio.Record) (*pbio.Record, error)

	// Inputs of the per-layer measurements: a representative record of the
	// publisher's format, and the workload's transform with a record of the
	// transform's source format.
	layerRec   *pbio.Record
	layerXform *core.Xform
	layerXRec  *pbio.Record
	// chain is every transform a sink's morpher must know (layerXform first).
	chain []*core.Xform
}

// workload names one scenario. burstRate is the frozen open-loop rate of the
// burst phase in messages per second: a third to a half of what the
// capacity phase sustained on the commit that introduced the benchmark (the
// margin is for the box's slow moods — open loop, a drop is a failure).
// warmMsgs is the fixed number of messages published before anything is
// timed, about a second's worth on that commit; retained_heap_mb is read
// right after them, so that it is the heap held after a fixed amount of
// work whatever the box's speed (format_churn: 192 generations).
type workload struct {
	name      string
	registry  bool
	warmMsgs  int
	burstRate int
	build     func(seed int64) (*source, error)
}

var workloads = []*workload{
	{
		name:      "fanout_identity",
		warmMsgs:  262144,
		burstRate: 80000,
		build:     buildFanoutIdentity,
	},
	{
		name:      "mixed_vintage",
		warmMsgs:  131072,
		burstRate: 45000,
		build:     buildMixedVintage,
	},
	{
		name:      "roster_morph",
		warmMsgs:  8192,
		burstRate: 3500,
		build:     buildRosterMorph,
	},
	{
		name:      "format_churn",
		registry:  true,
		warmMsgs:  192 * churnEvery,
		burstRate: 12000,
		build:     buildFormatChurn,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// splitmix is the SplitMix64 finalizer: the seed's bits spread over 64.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// seedIdentity derives the publisher identity and first sequence number.
func seedIdentity(seed int64) (src, seq0 uint64) {
	h := splitmix(uint64(seed))
	return h>>16 | 1, 1 + splitmix(h)>>24
}

// The protected trio leads every format in this benchmark, so handlers and
// the generator address it by index.
const (
	idxSrc = iota
	idxSeq
	idxCheck
)

var protected = []pbio.Field{
	{Name: "src", Kind: pbio.Unsigned, Size: 8},
	{Name: "seq", Kind: pbio.Unsigned, Size: 8},
	{Name: "check", Kind: pbio.Unsigned, Size: 8},
}

const protectedCopy = "old.src = new.src; old.seq = new.seq; old.check = new.check; "

func withProtected(fields ...pbio.Field) []pbio.Field {
	return append(append([]pbio.Field(nil), protected...), fields...)
}

// stamp writes the protected trio into a pooled record.
func stamp(rec *pbio.Record, src, seq uint64) {
	must(rec.SetIndex(idxSrc, pbio.Uint(src)))
	must(rec.SetIndex(idxSeq, pbio.Uint(seq)))
	must(rec.SetIndex(idxCheck, pbio.Uint(fleetgen.Check(src, seq))))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// compileXform compiles a transform the way a receiver would, for the
// offline reference.
func compileXform(x *core.Xform) (*ecode.Program, error) {
	return ecode.Compile(x.Code,
		ecode.Param{Name: core.SrcParam, Format: x.From},
		ecode.Param{Name: core.DstParam, Format: x.To})
}

// runXform applies a compiled transform to rec, producing a record of to.
func runXform(p *ecode.Program, rec *pbio.Record, to *pbio.Format) (*pbio.Record, error) {
	out := pbio.NewRecord(to)
	if _, err := p.Run(rec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// staticSource finishes a source whose publisher format never changes:
// message n is pool[n mod len] re-stamped, declared once at n = 0.
func staticSource(s *source, f *pbio.Format, xforms []*core.Xform, pool []*pbio.Record) {
	s.next = func(n uint64) (*pbio.Record, *declaration) {
		rec := pool[n%uint64(len(pool))]
		stamp(rec, s.src, s.seq0+n)
		if n == 0 {
			return rec, &declaration{format: f, xforms: xforms}
		}
		return rec, nil
	}
	s.layerRec = pool[0].Clone()
}

// fanoutShapeSeed fixes fanout_identity's format: fleetgen draws field
// widths from its seed, and the record size must not vary with --seed.
const fanoutShapeSeed = 0x5EED

func buildFanoutIdentity(seed int64) (*source, error) {
	s := &source{}
	s.src, s.seq0 = seedIdentity(seed)
	lin, err := fleetgen.NewLineage("fanout", s.src, fanoutShapeSeed, 9)
	if err != nil {
		return nil, err
	}
	g0 := lin.Latest()
	pool := make([]*pbio.Record, poolSize)
	for i := range pool {
		pool[i] = g0.NewRecord(s.seq0 + uint64(i))
	}
	for i := range s.sinks {
		s.sinks[i] = sinkSpec{format: g0.Format, encoded: true, lane: laneIdentity}
	}
	staticSource(s, g0.Format, nil, pool)
	s.reference = func(_ int, _ uint64, rec *pbio.Record) (*pbio.Record, error) {
		return rec.Clone(), nil
	}
	// No transform is on this workload's path; the ecode layer is still
	// measured, on the record four evolution steps later morphed back.
	for i := 0; i < 4; i++ {
		if _, err := lin.Evolve(); err != nil {
			return nil, err
		}
	}
	if s.layerXform, err = fleetgen.XformBetween(lin.Latest(), g0); err != nil {
		return nil, err
	}
	s.layerXRec = lin.Latest().NewRecord(s.seq0)
	return s, nil
}

// mixed_vintage's four generations of one telemetry message.
var (
	telemetryV4 = pbio.MustFormat("telemetry", withProtected(
		pbio.Field{Name: "temp", Kind: pbio.Float, Size: 8},
		pbio.Field{Name: "pressure", Kind: pbio.Float, Size: 8},
		pbio.Field{Name: "rpm", Kind: pbio.Integer, Size: 4},
		pbio.Field{Name: "volts", Kind: pbio.Float, Size: 8},
		pbio.Field{Name: "amps", Kind: pbio.Float, Size: 8},
		pbio.Field{Name: "status", Kind: pbio.Integer, Size: 4},
		pbio.Field{Name: "uptime", Kind: pbio.Unsigned, Size: 8},
		pbio.Field{Name: "errs", Kind: pbio.Integer, Size: 4},
	))
	// A reordered subset of v4 with widths unchanged: reachable name-wise,
	// and the plan compiles to byte copies.
	telemetrySubset = pbio.MustFormat("telemetry", withProtected(
		pbio.Field{Name: "volts", Kind: pbio.Float, Size: 8},
		pbio.Field{Name: "temp", Kind: pbio.Float, Size: 8},
		pbio.Field{Name: "uptime", Kind: pbio.Unsigned, Size: 8},
		pbio.Field{Name: "rpm", Kind: pbio.Integer, Size: 4},
	))
	telemetryV2 = pbio.MustFormat("telemetry", withProtected(
		pbio.Field{Name: "temperature", Kind: pbio.Float, Size: 8},
		pbio.Field{Name: "pressure_hpa", Kind: pbio.Integer, Size: 8},
		pbio.Field{Name: "rpm", Kind: pbio.Integer, Size: 8},
		pbio.Field{Name: "power", Kind: pbio.Float, Size: 8},
		pbio.Field{Name: "status", Kind: pbio.Integer, Size: 4},
		pbio.Field{Name: "uptime", Kind: pbio.Unsigned, Size: 8},
	))
	telemetryV1 = pbio.MustFormat("telemetry", withProtected(
		pbio.Field{Name: "temperature_c", Kind: pbio.Integer, Size: 4},
		pbio.Field{Name: "rpm", Kind: pbio.Integer, Size: 4},
		pbio.Field{Name: "healthy", Kind: pbio.Integer, Size: 4},
	))
	telemetryV4toV2 = &core.Xform{From: telemetryV4, To: telemetryV2, Code: protectedCopy +
		"old.temperature = new.temp; old.pressure_hpa = new.pressure * 10.0; old.rpm = new.rpm; " +
		"old.power = new.volts * new.amps; old.status = new.status; old.uptime = new.uptime;"}
	telemetryV2toV1 = &core.Xform{From: telemetryV2, To: telemetryV1, Code: protectedCopy +
		"old.temperature_c = new.temperature; old.rpm = new.rpm; old.healthy = new.status == 0;"}
)

func buildMixedVintage(seed int64) (*source, error) {
	s := &source{}
	s.src, s.seq0 = seedIdentity(seed)
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*pbio.Record, poolSize)
	for i := range pool {
		pool[i] = pbio.NewRecord(telemetryV4).
			MustSet("temp", pbio.Float64(-20+140*rng.Float64())).
			MustSet("pressure", pbio.Float64(900+200*rng.Float64())).
			MustSet("rpm", pbio.Int(rng.Int63n(8000))).
			MustSet("volts", pbio.Float64(11+3*rng.Float64())).
			MustSet("amps", pbio.Float64(40*rng.Float64())).
			MustSet("status", pbio.Int(rng.Int63n(3))).
			MustSet("uptime", pbio.Uint(uint64(rng.Int63n(1<<40)))).
			MustSet("errs", pbio.Int(rng.Int63n(100)))
	}
	s.sinks = [nSinks]sinkSpec{
		{format: telemetryV4, encoded: true, lane: laneIdentity},
		{format: telemetrySubset, encoded: true, lane: laneSplice},
		{format: telemetryV2, strict: true, lane: laneXform},
		{format: telemetryV1, strict: true, lane: laneChain},
	}
	s.chain = []*core.Xform{telemetryV4toV2, telemetryV2toV1}
	staticSource(s, telemetryV4, s.chain, pool)

	subset := core.NewConverter(telemetryV4, telemetrySubset)
	toV2, err := compileXform(telemetryV4toV2)
	if err != nil {
		return nil, err
	}
	toV1, err := compileXform(telemetryV2toV1)
	if err != nil {
		return nil, err
	}
	s.reference = func(i int, _ uint64, rec *pbio.Record) (*pbio.Record, error) {
		switch i {
		case 0:
			return rec.Clone(), nil
		case 1:
			return subset.Convert(rec)
		}
		v2, err := runXform(toV2, rec, telemetryV2)
		if err != nil || i == 2 {
			return v2, err
		}
		return runXform(toV1, v2, telemetryV1)
	}
	s.layerXform = telemetryV4toV2
	s.layerXRec = s.layerRec
	return s, nil
}

// roster_morph carries the ChannelOpenResponse v2.0 structure of Figure 4
// under its own name: "ChannelOpenResponse" itself is taken by the
// subscribers' handshake handlers.
var (
	rosterV2 = pbio.MustFormat("Roster", withProtected(
		pbio.Field{Name: "member_count", Kind: pbio.Integer, Size: 4},
		pbio.Field{Name: "member_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: echo.MemberV2Format}},
	))
	memberReordered = pbio.MustFormat("MemberV2", []pbio.Field{
		{Name: "ID", Kind: pbio.Integer, Size: 4},
		{Name: "is_Sink", Kind: pbio.Boolean},
		{Name: "info", Kind: pbio.String},
		{Name: "is_Source", Kind: pbio.Boolean},
	})
	rosterReordered = pbio.MustFormat("Roster", withProtected(
		pbio.Field{Name: "member_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: memberReordered}},
		pbio.Field{Name: "member_count", Kind: pbio.Integer, Size: 4},
	))
	entryList = func(name string) pbio.Field {
		return pbio.Field{Name: name, Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: echo.MemberEntryFormat}}
	}
	rosterV1 = pbio.MustFormat("Roster", withProtected(
		pbio.Field{Name: "member_count", Kind: pbio.Integer, Size: 4},
		entryList("member_list"),
		pbio.Field{Name: "src_count", Kind: pbio.Integer, Size: 4},
		entryList("src_list"),
		pbio.Field{Name: "sink_count", Kind: pbio.Integer, Size: 4},
		entryList("sink_list"),
	))
	rosterV2toV1 = &core.Xform{From: rosterV2, To: rosterV1, Code: echo.Figure5Transform + protectedCopy}
)

const (
	rosterMembers = 28 // ≈1 KB encoded
	rosterPool    = 32
)

func buildRosterMorph(seed int64) (*source, error) {
	s := &source{}
	s.src, s.seq0 = seedIdentity(seed)
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*pbio.Record, rosterPool)
	for i := range pool {
		// Exactly half the members are sources and half are sinks, in a
		// seeded order: the v1 lists the transform grows have the same
		// lengths for every seed, so the transform's cost does too.
		roles := rng.Perm(rosterMembers)
		members := make([]pbio.Value, rosterMembers)
		for j := range members {
			m := pbio.NewRecord(echo.MemberV2Format).
				MustSet("info", pbio.Str(fmt.Sprintf("tcp://node-%05d.rack-%02d:%05d", rng.Intn(100000), rng.Intn(100), rng.Intn(100000)))).
				MustSet("ID", pbio.Int(rng.Int63n(1<<31))).
				MustSet("is_Source", pbio.Bool(roles[j]%2 == 0)).
				MustSet("is_Sink", pbio.Bool(roles[j]%4 < 2))
			members[j] = pbio.RecordOf(m)
		}
		pool[i] = pbio.NewRecord(rosterV2).
			MustSet("member_count", pbio.Int(rosterMembers)).
			MustSet("member_list", pbio.ListOf(members))
	}
	s.sinks = [nSinks]sinkSpec{
		{format: rosterV2, lane: laneIdentity},
		{format: rosterReordered, lane: laneRecord},
		{format: rosterV1, strict: true, lane: laneXform},
		{format: rosterV1, strict: true, lane: laneXform},
	}
	s.chain = []*core.Xform{rosterV2toV1}
	staticSource(s, rosterV2, s.chain, pool)

	reorder := core.NewConverter(rosterV2, rosterReordered)
	toV1, err := compileXform(rosterV2toV1)
	if err != nil {
		return nil, err
	}
	s.reference = func(i int, _ uint64, rec *pbio.Record) (*pbio.Record, error) {
		switch i {
		case 0:
			return rec.Clone(), nil
		case 1:
			return reorder.Convert(rec)
		}
		return runXform(toV1, rec, rosterV1)
	}
	s.layerXform = rosterV2toV1
	s.layerXRec = s.layerRec
	return s, nil
}

// churnGen is one generation of the current format_churn lineage.
type churnGen struct {
	gen   *fleetgen.Generation
	xform *core.Xform    // to generation 0; nil for generation 0 itself
	prog  *ecode.Program // xform compiled, for the reference only
	pool  []*pbio.Record
}

const churnPool = 8

// churnLineage returns epoch e's lineage evolved through generation g.
func churnLineage(src uint64, seed int64, e, g uint64) (*fleetgen.Lineage, error) {
	lin, err := fleetgen.NewLineage(fmt.Sprintf("churn%d", e), src, int64(splitmix(uint64(seed)^e<<32)), 8)
	if err != nil {
		return nil, err
	}
	for uint64(len(lin.Generations())) <= g {
		if _, err := lin.Evolve(); err != nil {
			return nil, err
		}
	}
	return lin, nil
}

func buildFormatChurn(seed int64) (*source, error) {
	s := &source{}
	s.src, s.seq0 = seedIdentity(seed)
	for i := range s.sinks {
		s.sinks[i] = sinkSpec{strict: true, lane: laneXform}
	}

	// Only the current epoch is kept: what the harness retains must not
	// grow with the generation count, or retained_heap_mb would measure it.
	var (
		epoch = ^uint64(0)
		lin   *fleetgen.Lineage
		gens  []*churnGen
	)
	generation := func(n uint64) (*churnGen, bool) {
		e, g := n/churnEvery/churnEpoch, n/churnEvery%churnEpoch
		if e != epoch {
			l, err := churnLineage(s.src, seed, e, 0)
			must(err)
			epoch, lin, gens = e, l, gens[:0]
		}
		for uint64(len(gens)) <= g {
			k := len(gens)
			if k > 0 {
				_, err := lin.Evolve()
				must(err)
			}
			cg := &churnGen{gen: lin.Latest(), pool: make([]*pbio.Record, churnPool)}
			if k > 0 {
				x, err := fleetgen.XformBetween(cg.gen, gens[0].gen)
				must(err)
				cg.xform = x
			}
			first := (e*churnEpoch + uint64(k)) * churnEvery
			for i := range cg.pool {
				cg.pool[i] = cg.gen.NewRecord(s.seq0 + first + uint64(i))
			}
			gens = append(gens, cg)
		}
		return gens[g], n%churnEvery == 0
	}
	s.next = func(n uint64) (*pbio.Record, *declaration) {
		cg, first := generation(n)
		rec := cg.pool[n%churnPool]
		stamp(rec, s.src, s.seq0+n)
		if !first {
			return rec, nil
		}
		d := &declaration{format: cg.gen.Format}
		if cg.xform != nil {
			d.xforms = []*core.Xform{cg.xform}
		} else {
			d.sinkFormat = cg.gen.Format
		}
		return rec, d
	}
	s.reference = func(_ int, n uint64, rec *pbio.Record) (*pbio.Record, error) {
		cg, _ := generation(n)
		if cg.xform == nil {
			return rec.Clone(), nil
		}
		if cg.prog == nil {
			p, err := compileXform(cg.xform)
			if err != nil {
				return nil, err
			}
			cg.prog = p
		}
		return runXform(cg.prog, rec, cg.xform.To)
	}

	// Layer inputs: the middle of the first lineage, morphed back to its
	// generation 0 — built on a lineage of its own so next() stays lazy.
	mid, err := churnLineage(s.src, seed, 0, churnEpoch/2)
	if err != nil {
		return nil, err
	}
	if s.layerXform, err = fleetgen.XformBetween(mid.Latest(), mid.Generations()[0]); err != nil {
		return nil, err
	}
	s.layerXRec = mid.Latest().NewRecord(s.seq0)
	s.layerRec = s.layerXRec
	s.chain = []*core.Xform{s.layerXform}
	return s, nil
}
