package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/fleetgen"
	"repro/internal/pbio"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The staged path is the publisher → broker → sink pipeline assembled from
// the layers' public functions and run on ONE goroutine over real loopback
// sockets, so that every call can be bracketed by a span without a hand-off
// in between:
//
//	pbio.EncodeRecord → wire.WriteEncoded (publisher) → ReadEncoded (broker)
//	→ fanout.NewFrame + Enqueue ×4 → DrainNow ×4, whose Flush does the
//	sink-side WriteEncodedBatchCtx → ReadEncoded (sink) ×4
//	→ core.Morpher.DeliverEncoded ×4 → handler
//
// Spans are recorded from here, around the calls; the program is not
// instrumented.

// Span names: one per layer boundary crossed.
const (
	spanMessage     = "message"
	spanEncode      = "pbio.encode"
	spanWritePub    = "wire.write_pub"
	spanReadBroker  = "wire.read_broker"
	spanEnqueue     = "fanout.enqueue"
	spanDrain       = "fanout.drain"
	spanWriteSink   = "wire.write_sink"
	spanReadSink    = "wire.read_sink"
	spanDeliver     = "core.deliver"
	spanHandler     = "handler"
	tracesInFile    = 64
	stagedWarmupMsg = 512
)

// stageNames lists the spans in path order; perSink marks those that run
// once per sink rather than once per message.
var stageNames = []string{spanMessage, spanEncode, spanWritePub, spanReadBroker, spanEnqueue,
	spanDrain, spanWriteSink, spanReadSink, spanDeliver, spanHandler}

var perSink = map[string]bool{spanDrain: true, spanWriteSink: true, spanReadSink: true, spanDeliver: true, spanHandler: true}

// recorder keeps the spans of the message in flight.
type recorder struct {
	on    bool
	base  time.Time
	trace uint64
	spans []span
}

func (t *recorder) start(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Trace: t.trace, ID: len(t.spans), Parent: parent, Name: name, Start: int64(time.Since(t.base))})
	return len(t.spans) - 1
}

func (t *recorder) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.base))
	}
}

type stagedPath struct {
	src      *source
	tr       recorder
	conns    []net.Conn
	pubOut   *wire.Conn
	brokerIn *wire.Conn
	out, in  [nSinks]*wire.Conn
	queues   [nSinks]*fanout.Queue
	morphers [nSinks]*core.Morpher
	meta     map[uint64][]*core.Xform // what the broker relays with each format
	batch    []wire.BatchFrame
	parent   int // span enclosing the callback in progress
	sink     int // sink whose delivery is in progress
	next     [nSinks]uint64
	n        uint64
	failed   uint64
}

func newStagedPath(src *source) (*stagedPath, error) {
	p := &stagedPath{src: src, meta: map[uint64][]*core.Xform{}}
	p.tr.base = time.Now()
	pair := func() (net.Conn, net.Conn, error) {
		a, b, err := tcpPair()
		if err == nil {
			p.conns = append(p.conns, a, b)
		}
		return a, b, err
	}
	a, b, err := pair()
	if err != nil {
		return nil, err
	}
	p.pubOut = wire.NewConn(a)
	p.brokerIn = wire.NewConn(b, wire.WithFormatHook(func(f *pbio.Format, xs []*core.Xform) {
		p.meta[f.Fingerprint()] = xs
	}))
	for i := range p.queues {
		i := i
		a, b, err := pair()
		if err != nil {
			p.close()
			return nil, err
		}
		spec := src.sinks[i]
		th := core.DefaultThresholds
		if spec.strict {
			th = core.Thresholds{}
		}
		p.morphers[i] = core.NewMorpher(th)
		if spec.format != nil {
			if err := p.register(i, spec.format); err != nil {
				p.close()
				return nil, err
			}
		}
		p.out[i] = wire.NewConn(a)
		p.in[i] = wire.NewConn(b, wire.WithMorpher(p.morphers[i]))
		p.queues[i] = fanout.NewQueue(fanout.Config{Cap: queueCap, Manual: true, Flush: func(frames []*fanout.Frame) error {
			ws := p.tr.start(spanWriteSink, p.parent)
			defer p.tr.end(ws)
			p.batch = p.batch[:0]
			for _, fr := range frames {
				if xs, ok := p.meta[fr.Format.Fingerprint()]; ok {
					p.out[i].Declare(fr.Format, xs...)
				}
				p.batch = append(p.batch, wire.BatchFrame{Data: fr.Data, Format: fr.Format})
			}
			return p.out[i].WriteEncodedBatchCtx(p.batch)
		}})
	}
	return p, nil
}

func (p *stagedPath) register(i int, f *pbio.Format) error {
	if p.src.sinks[i].encoded {
		return p.morphers[i].RegisterFormatEncoded(f, func(d []byte, _ *pbio.Format) error {
			h := p.tr.start(spanHandler, p.parent)
			b := d[pbio.EnvelopeSize:]
			p.verify(binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:]), binary.LittleEndian.Uint64(b[16:]))
			p.tr.end(h)
			return nil
		})
	}
	return p.morphers[i].RegisterFormat(f, func(r *pbio.Record) error {
		h := p.tr.start(spanHandler, p.parent)
		p.verify(r.GetIndex(idxSrc).Uint64(), r.GetIndex(idxSeq).Uint64(), r.GetIndex(idxCheck).Uint64())
		p.tr.end(h)
		return nil
	})
}

func (p *stagedPath) verify(src, seq, check uint64) {
	if src != p.src.src || seq != p.src.seq0+p.next[p.sink] || check != fleetgen.Check(src, seq) {
		p.failed++
	}
	p.next[p.sink]++
}

func (p *stagedPath) close() {
	for _, q := range p.queues {
		if q != nil {
			q.Close()
		}
	}
	for _, c := range p.conns {
		_ = c.Close()
	}
}

// step pushes one message down the whole path.
func (p *stagedPath) step() error {
	rec, decl := p.src.next(p.n)
	if decl != nil {
		if decl.sinkFormat != nil {
			for i := range p.morphers {
				if err := p.register(i, decl.sinkFormat); err != nil {
					return err
				}
			}
		}
		p.pubOut.Declare(decl.format, decl.xforms...)
	}
	tr := &p.tr
	tr.spans, tr.trace = tr.spans[:0], p.src.seq0+p.n
	p.n++
	root := tr.start(spanMessage, -1)

	s := tr.start(spanEncode, root)
	data := pbio.EncodeRecord(rec)
	tr.end(s)

	s = tr.start(spanWritePub, root)
	err := p.pubOut.WriteEncoded(rec.Format(), data)
	tr.end(s)
	if err != nil {
		return err
	}

	s = tr.start(spanReadBroker, root)
	body, f, err := p.brokerIn.ReadEncoded()
	tr.end(s)
	if err != nil {
		return err
	}

	s = tr.start(spanEnqueue, root)
	fr := fanout.NewFrame(body, f, trace.Context{}, time.Now())
	for _, q := range p.queues {
		fr.Retain()
		q.Enqueue(fr)
	}
	fr.Release()
	tr.end(s)

	for _, q := range p.queues {
		s = tr.start(spanDrain, root)
		p.parent = s
		q.DrainNow()
		tr.end(s)
	}
	for i := range p.in {
		s = tr.start(spanReadSink, root)
		body, f, err := p.in[i].ReadEncoded()
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.start(spanDeliver, root)
		p.parent, p.sink = s, i
		err = p.morphers[i].DeliverEncoded(body, f)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("staged sink %d: %w", i, err)
		}
	}
	tr.end(root)
	return nil
}

// stagedResult is the budget read off the traced replay.
type stagedResult struct {
	selfUS    map[string]float64 // median self time per delivery, by span name
	pathUS    float64            // their sum: one delivery's staged path
	overhead  float64            // wall per message with spans on ÷ off
	messages  uint64
	failed    uint64
	keptSpans []span
}

// stagedBlock is how many messages run with spans on before as many run
// with spans off: interleaving keeps the two sets on the same stretch of
// the workload (and of the box's mood), so their ratio is the overhead.
const stagedBlock = 256

// runStaged replays the workload down the staged path for about budget,
// alternating blocks with spans off and on.
func runStaged(src *source, budget time.Duration) (stagedResult, error) {
	res := stagedResult{selfUS: map[string]float64{}}
	p, err := newStagedPath(src)
	if err != nil {
		return res, err
	}
	defer p.close()
	for p.n < stagedWarmupMsg {
		if err := p.step(); err != nil {
			return res, err
		}
	}

	p.tr.spans = make([]span, 0, 64)
	samples := map[string][]float64{}
	self := map[string]int64{}
	var wall [2]time.Duration // spans off, spans on
	var msgs [2]int
	for start := time.Now(); time.Since(start) < budget; {
		p.tr.on = !p.tr.on
		mode := 0
		if p.tr.on {
			mode = 1
		}
		for i := 0; i < stagedBlock; i++ {
			t0 := time.Now()
			if err := p.step(); err != nil {
				return res, err
			}
			wall[mode] += time.Since(t0)
			msgs[mode]++
			if !p.tr.on {
				continue
			}
			if msgs[1] <= tracesInFile {
				res.keptSpans = append(res.keptSpans, p.tr.spans...)
			}
			for k := range self {
				self[k] = 0
			}
			selfTimes(p.tr.spans, self)
			for _, name := range stageNames {
				v := float64(self[name])
				if perSink[name] {
					v /= nSinks
				}
				samples[name] = append(samples[name], v)
			}
		}
	}
	for _, name := range stageNames {
		res.selfUS[name] = median(samples[name]) / 1e3
		res.pathUS += res.selfUS[name]
	}
	if msgs[0] > 0 && msgs[1] > 0 {
		res.overhead = (float64(wall[1]) / float64(msgs[1])) / (float64(wall[0]) / float64(msgs[0]))
	}
	res.messages, res.failed = p.n, p.failed
	return res, nil
}

// writeTrace stores a sample of the traced replay's spans and the budget
// derived from all of them.
func writeTrace(path, workload string, seed int64, res stagedResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Messages uint64             `json:"messages_replayed"`
		SelfUS   map[string]float64 `json:"median_self_us_per_delivery"`
		PathUS   float64            `json:"staged_path_us"`
		Spans    []span             `json:"spans"`
	}{workload, seed, res.messages, res.selfUS, res.pathUS, res.keptSpans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
