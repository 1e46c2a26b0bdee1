package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/pbio"
	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// Results the compiler must not discard.
var (
	keepBytes  []byte
	keepRecord *pbio.Record
)

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair() (dialed, accepted net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	dialed, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	accepted, err = ln.Accept()
	if err != nil {
		_ = dialed.Close()
		return nil, nil, err
	}
	return dialed, accepted, nil
}

// toGo mirrors a record as the dynamic value tree the stdlib codecs take
// (map / slice / scalar): the same self-describing shape a pbio.Record is.
func toGo(rec *pbio.Record) map[string]any {
	out := make(map[string]any, rec.Format().NumFields())
	for i := 0; i < rec.Format().NumFields(); i++ {
		out[rec.Format().Field(i).Name] = valueToGo(rec.GetIndex(i))
	}
	return out
}

func valueToGo(v pbio.Value) any {
	switch v.Kind() {
	case pbio.String:
		return v.Strval()
	case pbio.Float:
		return v.Float64()
	case pbio.Boolean:
		return v.Bool()
	case pbio.Unsigned:
		return v.Uint64()
	case pbio.Complex:
		return toGo(v.Record())
	case pbio.List:
		l := make([]any, v.Len())
		for i, e := range v.List() {
			l[i] = valueToGo(e)
		}
		return l
	default:
		return v.Int64()
	}
}

func init() {
	gob.Register(map[string]any{})
	gob.Register([]any{})
}

// morpherFor builds a standalone engine for one sink vintage with a no-op
// handler of the vintage's kind.
func morpherFor(src *source, spec sinkSpec) (*core.Morpher, error) {
	th := core.DefaultThresholds
	if spec.strict {
		th = core.Thresholds{}
	}
	m := core.NewMorpher(th)
	f := spec.format
	if f == nil {
		f = src.layerXform.To
	}
	var err error
	if spec.encoded {
		err = m.RegisterFormatEncoded(f, func(d []byte, _ *pbio.Format) error { keepBytes = d; return nil })
	} else {
		err = m.RegisterFormat(f, func(r *pbio.Record) error { keepRecord = r; return nil })
	}
	if err != nil {
		return nil, err
	}
	for _, x := range src.chain {
		if err := m.AddTransform(x); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// measureLayers times each package's public calls on the workload's own
// record and transform, budget per measurement, and adds the results to out.
func measureLayers(src *source, budget time.Duration, out metrics) error {
	rec := src.layerRec
	f := rec.Format()
	data := pbio.EncodeRecord(rec)

	// pbio, with the stdlib codecs on the same value as a yardstick.
	ns, _ := bench(budget, func(n int) {
		for i := 0; i < n; i++ {
			keepBytes = pbio.EncodeRecord(rec)
		}
	})
	out.set("pbio.encode_ns", ns, "ns")
	var derr error
	decodeNS, al := bench(budget, func(n int) {
		for i := 0; i < n; i++ {
			keepRecord, derr = pbio.DecodePayload(data[pbio.EnvelopeSize:], f)
		}
	})
	if derr != nil {
		return derr
	}
	out.set("pbio.decode_ns", decodeNS, "ns")
	out.set("pbio.allocs_per_decode", al, "count")
	out.set("pbio.encoded_bytes", float64(len(data)), "B")

	val := toGo(rec)
	var buf bytes.Buffer
	ns, _ = bench(budget, func(n int) {
		enc := gob.NewEncoder(&buf) // one encoder per stream: types travel once
		for i := 0; i < n; i++ {
			if i%gobStream == 0 {
				buf.Reset() // bound the buffer, keep the stream
			}
			derr = enc.Encode(val)
		}
	})
	out.set("pbio.gob_encode_ns", ns, "ns")
	buf.Reset()
	enc := gob.NewEncoder(&buf)
	for i := 0; i < gobStream && derr == nil; i++ {
		derr = enc.Encode(val)
	}
	stream := buf.Bytes()
	ns, _ = bench(budget, func(n int) {
		for done := 0; done < n; done += gobStream {
			dec := gob.NewDecoder(bytes.NewReader(stream))
			for j := 0; j < gobStream && done+j < n; j++ {
				var v map[string]any
				derr = dec.Decode(&v)
			}
		}
	})
	out.set("pbio.gob_decode_ns", ns, "ns")
	ns, _ = bench(budget, func(n int) {
		for i := 0; i < n; i++ {
			keepBytes, derr = json.Marshal(val)
		}
	})
	out.set("pbio.json_encode_ns", ns, "ns")
	js := keepBytes
	ns, _ = bench(budget, func(n int) {
		for i := 0; i < n; i++ {
			var v map[string]any
			derr = json.Unmarshal(js, &v)
		}
	})
	out.set("pbio.json_decode_ns", ns, "ns")
	if derr != nil {
		return fmt.Errorf("stdlib codec yardstick: %w", derr)
	}

	// ecode: the workload's transform, compiled and run standalone.
	x := src.layerXform
	prog, err := compileXform(x)
	if err != nil {
		return err
	}
	runNS, al := bench(budget, func(n int) {
		for i := 0; i < n; i++ {
			keepRecord, derr = runXform(prog, src.layerXRec, x.To)
		}
	})
	if derr != nil {
		return derr
	}
	out.set("ecode.run_ns", runNS, "ns")
	out.set("ecode.allocs_per_run", al, "count")
	ns, _ = bench(budget, func(n int) {
		for i := 0; i < n; i++ {
			_, derr = compileXform(x)
		}
	})
	out.set("ecode.compile_us", ns/1e3, "us")

	// core: a warm DeliverEncoded per sink vintage, and a cold first one.
	var deliver [nSinks]float64
	for i, spec := range src.sinks {
		m, err := morpherFor(src, spec)
		if err != nil {
			return err
		}
		deliver[i], _ = bench(budget, func(n int) {
			for j := 0; j < n; j++ {
				derr = m.DeliverEncoded(data, f)
			}
		})
		if derr != nil {
			return fmt.Errorf("core deliver, sink %d: %w", i, derr)
		}
		out.set("core.deliver_ns."+string(rune('a'+i)), deliver[i], "ns")
	}
	// Sink c is the single-transform vintage wherever the workload has one.
	self := deliver[2]
	if lane := src.sinks[2].lane; lane == laneXform {
		self -= decodeNS + runNS
	} else if !src.sinks[2].encoded {
		self -= decodeNS
	}
	out.set("core.self_ns", self, "ns")
	out.set("core.morph_over_decode", deliver[2]/decodeNS, "ratio")
	var cold *core.Morpher
	ns = benchEach(budget, func(int) {
		cold, err = morpherFor(src, src.sinks[nSinks-1])
	}, func(int) {
		derr = cold.DeliverEncoded(data, f)
	})
	if err != nil || derr != nil {
		return fmt.Errorf("core cold decision: %v %v", err, derr)
	}
	out.set("core.decide_cold_us", ns/1e3, "us")

	if err := measureWire(f, data, budget, out); err != nil {
		return err
	}
	measureFanout(f, data, budget, out)
	return measureRegistry(src, budget, out)
}

// gobStream is how many values share one gob stream (and so one copy of
// the type descriptors) in the yardstick.
const gobStream = 256

// measureWire times WriteEncoded and ReadEncoded over one loopback TCP
// connection, both ends on this goroutine: the frame is written, then read.
func measureWire(f *pbio.Format, data []byte, budget time.Duration, out metrics) error {
	a, b, err := tcpPair()
	if err != nil {
		return err
	}
	w, r := wire.NewConn(a), wire.NewConn(b)
	defer w.Close()
	defer r.Close()
	var writes, reads []float64
	var frames int
	m0 := uint64(0)
	start := time.Now()
	for time.Since(start) < 2*budget {
		t0 := time.Now()
		if err := w.WriteEncoded(f, data); err != nil {
			return err
		}
		t1 := time.Now()
		if _, _, err := r.ReadEncoded(); err != nil {
			return err
		}
		t2 := time.Now()
		if frames == 0 {
			m0 = mallocs() // the first frame carries the format frame
			frames++
			continue
		}
		frames++
		writes = append(writes, float64(t1.Sub(t0)))
		reads = append(reads, float64(t2.Sub(t1)))
	}
	m1 := mallocs()
	out.set("wire.write_ns", median(writes), "ns")
	out.set("wire.read_ns", median(reads), "ns")
	out.set("wire.allocs_per_frame", float64(m1-m0)/float64(frames-1), "count")
	return nil
}

// measureFanout times the delivery engine alone: one shared frame enqueued
// to four Manual queues, then each queue drained into a flush that writes
// nothing.
func measureFanout(f *pbio.Format, data []byte, budget time.Duration, out metrics) {
	var qs [nSinks]*fanout.Queue
	for i := range qs {
		qs[i] = fanout.NewQueue(fanout.Config{
			Cap: queueCap, Manual: true,
			Flush: func([]*fanout.Frame) error { return nil },
		})
	}
	const perDrain = 64
	var enq, drain []float64
	start := time.Now()
	for time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < perDrain; i++ {
			fr := fanout.NewFrame(data, f, trace.Context{}, t0)
			for _, q := range qs {
				fr.Retain()
				q.Enqueue(fr)
			}
			fr.Release()
		}
		t1 := time.Now()
		for _, q := range qs {
			q.DrainNow()
		}
		t2 := time.Now()
		enq = append(enq, float64(t1.Sub(t0))/perDrain)
		drain = append(drain, float64(t2.Sub(t1))/(perDrain*nSinks))
	}
	for _, q := range qs {
		q.Close()
	}
	out.set("fanout.enqueue_ns", median(enq), "ns")
	out.set("fanout.drain_ns", median(drain), "ns")
}

// measureRegistry times the format registry on fresh copies of the
// workload's transform source format: Register, a resolve that must ask the
// daemon, and a resolve answered from the client's cache.
func measureRegistry(src *source, budget time.Duration, out metrics) error {
	srv, err := registry.NewServer()
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	pub := registry.NewClient(ln.Addr().String())
	res := registry.NewClient(ln.Addr().String(), registry.WithWatchDisabled())
	defer func() {
		_ = pub.Close()
		_ = res.Close()
		_ = srv.Close()
		<-done
	}()

	x := src.layerXform
	variant := func(tag string, i int) (*pbio.Format, *core.Xform) {
		vf := pbio.MustFormat(fmt.Sprintf("%s_%s%d", x.From.Name(), tag, i), x.From.Fields())
		return vf, &core.Xform{From: vf, To: x.To, Code: x.Code}
	}
	var (
		vf   *pbio.Format
		vx   *core.Xform
		rerr error
	)
	ns := benchEach(budget, func(i int) { vf, vx = variant("reg", i) }, func(int) {
		if err := pub.Register(vf, vx); err != nil {
			rerr = err
		}
	})
	out.set("registry.register_us", ns/1e3, "us")
	ns = benchEach(budget, func(i int) {
		vf, vx = variant("res", i)
		if err := pub.Register(vf, vx); err != nil {
			rerr = err
		}
	}, func(int) {
		if _, _, err := res.ResolveFormat(vf.Fingerprint()); err != nil {
			rerr = err
		}
	})
	out.set("registry.resolve_cold_us", ns/1e3, "us")
	ns, _ = bench(budget, func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := res.ResolveFormat(vf.Fingerprint()); err != nil {
				rerr = err
			}
		}
	})
	out.set("registry.resolve_hit_ns", ns, "ns")
	return rerr
}
