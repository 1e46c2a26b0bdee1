package echo

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/fanout"
	"repro/internal/obs"
	"repro/internal/wire"
)

// SlowDeliveryNS is the slow-consumer threshold: a delivery whose
// publish-to-flush lag reaches it increments the sink's (and channel's)
// slow counter. Healthy local deliveries run in the tens of microseconds;
// a millisecond of lag means a consumer is not draining.
const SlowDeliveryNS = int64(time.Millisecond)

// sinkObs holds one sink subscriber's delivery-accounting instruments, all
// labeled `{channel="...",sink="<member id>"}` so /metrics separates the
// slow consumer from its well-behaved neighbors:
//
//	echo.sink.lag_ns        delivery lag (publish receipt → write flushed)
//	echo.sink.queue_depth   deliveries currently in flight to this sink (memberConn.depth)
//	echo.sink.bytes_pending bytes of those in-flight deliveries
//	echo.sink.dropped       deliveries aborted by a write failure
//	echo.sink.slow          deliveries slower than SlowDeliveryNS
//
// queue_depth/bytes_pending mirror the sink's outbound delivery queue:
// every admitted frame increments them on enqueue and decrements exactly
// once on settle (flushed, dropped on overflow, or discarded at close), so
// a consumer that stops draining shows its queue filling on /metrics in
// real time. All fields are nil (no-op) when observability is disabled.
type sinkObs struct {
	lagNS   *obs.Histogram
	pending *obs.Gauge
	dropped *obs.Counter
	slow    *obs.Counter
	names   []string // registered series names, removed when the sink leaves
}

func newSinkObs(reg *obs.Registry, channel string, id int32, depth *atomic.Int64) sinkObs {
	sink := strconv.Itoa(int(id))
	names := []string{
		obs.LabeledName("echo.sink.lag_ns", "channel", channel, "sink", sink),
		obs.LabeledName("echo.sink.queue_depth", "channel", channel, "sink", sink),
		obs.LabeledName("echo.sink.bytes_pending", "channel", channel, "sink", sink),
		obs.LabeledName("echo.sink.dropped", "channel", channel, "sink", sink),
		obs.LabeledName("echo.sink.slow", "channel", channel, "sink", sink),
	}
	reg.GaugeFunc(names[1], depth.Load)
	return sinkObs{
		lagNS:   reg.Histogram(names[0]),
		pending: reg.Gauge(names[2]),
		dropped: reg.Counter(names[3]),
		slow:    reg.Counter(names[4]),
		names:   names,
	}
}

// newSinkQueue builds one sink's outbound delivery queue, wiring the
// accounting pairing into the queue's lifecycle hooks: OnEnqueue increments
// the sink's depth counter and bytes_pending gauge and every admitted frame
// gets exactly one matching decrement — OnDeliver after its batch flushed,
// OnDrop on overflow, write failure, or close. No echo code path touches
// them outside these hooks, so none can strand them.
func (ch *channel) newSinkQueue(mc *memberConn) *fanout.Queue {
	return fanout.NewQueue(fanout.Config{
		Cap:    ch.queueCap,
		Policy: ch.queuePolicy,
		// Flush hands the whole backlog to the wire layer as one batch:
		// one write lock, and one Write per 64 KiB of frames — N coalesced
		// frames cost ⌈bytes / 64 KiB⌉ syscalls, not N.
		// Evolution meta-data is relayed here, by the sink's own writer,
		// never by the fan-out pass: Declare takes the conn's write lock,
		// which a stalled sink's writer can hold across a blocked flush —
		// exactly the head-of-line block the engine exists to remove.
		Flush: func(batch []*fanout.Frame) error {
			mc.ackPending.Wait() // events follow the handshake response, never lead it
			meta := ch.metaSnapshot()
			wb := mc.wbatch[:0]
			for _, fr := range batch {
				// One lookup per frame, free while no publisher has
				// declared any meta — the common case (a nil map).
				// Declare is idempotent per format (no-op once the format
				// frame is on the wire).
				if em, ok := meta[fr.Format.Fingerprint()]; ok {
					mc.conn.Declare(em.format, em.xforms...)
				}
				wb = append(wb, wire.BatchFrame{Data: fr.Data, Format: fr.Format, Ctx: fr.Ctx})
			}
			err := mc.conn.WriteEncodedBatchCtx(wb)
			for i := range wb {
				wb[i] = wire.BatchFrame{} // don't pin released frame buffers
			}
			mc.wbatch = wb[:0]
			return err
		},
		OnEnqueue: func(fr *fanout.Frame) {
			mc.depth.Add(1)
			mc.so.pending.Add(int64(len(fr.Data)))
		},
		OnDeliver: func(fr *fanout.Frame, lagNS int64) {
			mc.depth.Add(-1)
			mc.so.pending.Add(-int64(len(fr.Data)))
			// Delivery lag: publish receipt (fan-out entry) → this sink's
			// write flushed. The exemplar ties a top-bucket lag sample to
			// the event's trace, so a p99 spike on /metrics resolves to a
			// trace tree in /debug/tracez; unsampled events carry a zero
			// trace ID and record plain.
			mc.so.lagNS.ObserveExemplar(uint64(lagNS), [16]byte(fr.Ctx.Trace))
			ch.perLagNS.Observe(uint64(lagNS))
			if lagNS >= SlowDeliveryNS {
				mc.so.slow.Inc()
				ch.perSlow.Inc()
			}
			ch.om.delivered.Inc()
			ch.perDelivered.Inc()
		},
		OnDrop: func(fr *fanout.Frame) {
			mc.depth.Add(-1)
			mc.so.pending.Add(-int64(len(fr.Data)))
			mc.so.dropped.Inc()
			ch.perDrops.Inc()
		},
		OnFlush: func(frames int) {
			ch.perFlushFrames.Observe(uint64(frames))
		},
		// A write failure or Disconnect-policy overflow fails the sink:
		// drop its membership and close the connection. The queue has
		// already settled the backlog's accounting.
		OnFail: func(error) {
			ch.remove(mc)
			_ = mc.conn.Close()
		},
		// Active writer passes, as a per-channel gauge: it reads 0 whenever
		// the channel is idle (the spawn-on-demand claim) and at most the
		// sink count under load. Inert without observability — a nil gauge
		// absorbs the Add.
		OnWriter: func(delta int) {
			ch.perWriters.Add(int64(delta))
		},
	})
}
