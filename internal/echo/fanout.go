package echo

import (
	"runtime"
	"time"

	"repro/internal/ecode"
	"repro/internal/fanout"
	"repro/internal/pbio"
	"repro/internal/trace"
)

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
	return err == nil && ecode.Truthy(v)
}

// readLoop is the publish read loop: everything a member sends after the
// handshake is an event submission, fanned out until the connection ends,
// which removes the member. Events stay in their encoded form end to end:
// the publisher's bytes are forwarded to every sink verbatim (fanout never
// re-encodes, and decodes at most once — lazily, for derived-channel
// filters). The buffer from ReadEncoded is only valid until the next read,
// which is fine because fanout copies the bytes exactly once into a
// refcounted shared frame before returning; sink writers drain that frame,
// not this buffer.
func (ch *channel) readLoop(mc *memberConn) {
	for {
		data, f, err := mc.conn.ReadEncoded()
		if err != nil {
			ch.remove(mc)
			return
		}
		ch.fanout(mc, f, data, mc.conn.TraceContext())
	}
}

// fanout offers an event to every sink subscriber except its publisher —
// the enqueue half of the delivery engine. The publisher's encoded bytes are
// copied exactly once into a refcounted shared frame and enqueued to each
// sink's bounded queue by pointer; dedicated writers flush the queues in
// coalesced batches, so a stalled consumer fills (and degrades) only its own
// queue and this pass never blocks on a write. Membership is the channel's
// copy-on-write list, read off one atomic pointer load: the pass holds no
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
// the server traces, the whole pass is a fanout span (N = sinks offered the
// event) and sinks receive the fanout span's context; when it does not, tctx
// relays to sinks verbatim — the same pass-through discipline as format
// meta-data.
func (ch *channel) fanout(from *memberConn, f *pbio.Format, data []byte, tctx trace.Context) {
	ch.om.eventsIn.Inc()
	// t0 is the publish receipt time every sink's delivery lag is measured
	// against; the fan-out histogram times the enqueue pass itself.
	t0 := time.Now()
	fs := ch.tracer.StartSpan(tctx, trace.StageFanout)
	if fs.Recording() {
		fs.FP = f.Fingerprint()
		tctx = fs.Context()
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
	for _, mc := range ch.memberList() {
		if mc == from || mc.q == nil {
			continue // the publisher, or a pure source
		}
		// Derived channels: apply the member's filter at the source side,
		// so uninteresting events never cross the network.
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
		offered++
	}
	if fr != nil {
		fr.Release()
	}
	if fs.Recording() {
		fs.N = offered
		fs.End()
	}
	if ch.om.fanoutNS != nil {
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
