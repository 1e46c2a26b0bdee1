package fanout

import (
	"errors"
	"sync"
	"time"
)

// Policy selects what Enqueue does when a sink's queue is full — the
// slow-consumer question every bounded fan-out has to answer.
type Policy uint8

const (
	// DropNewest rejects the incoming frame and keeps the backlog: the
	// sink stays connected, loses the newest events, and the loss is
	// visible on its dropped counter. The default — a slow sink degrades
	// itself and nobody else.
	DropNewest Policy = iota
	// Disconnect fails the sink outright: the backlog is discarded and
	// OnFail fires so the owner can close the connection. For deployments
	// where a gap is worse than a reconnect.
	Disconnect
)

// ErrOverflow is the failure OnFail reports when the Disconnect policy
// trips.
var ErrOverflow = errors.New("fanout: sink queue overflow")

// DefaultCap is the queue capacity used when Config.Cap is unset.
const DefaultCap = 1024

// Config wires a Queue to its sink. Flush is required; every other hook is
// optional. The queue guarantees the accounting pairing the delivery gauges
// depend on: every frame passed to Enqueue gets exactly one OnEnqueue and
// then exactly one of OnDeliver or OnDrop, on every path — success, write
// failure, overflow, and close. There is no code path that strands a gauge.
type Config struct {
	// Cap bounds the number of queued frames (DefaultCap when <= 0).
	Cap int
	// Policy picks the overflow behavior.
	Policy Policy
	// Flush writes one batch to the sink — every queued frame the writer
	// found pending, in arrival order — and makes it durable in one
	// operation (on a wire.Conn, one Write per 64 KiB). An error fails the
	// queue: the batch and any later frames are dropped and OnFail fires.
	Flush func(batch []*Frame) error
	// OnEnqueue is called once per Enqueue'd frame, before queue admission
	// (queue-depth and bytes-pending gauges increment here).
	OnEnqueue func(fr *Frame)
	// OnDeliver is called once per frame after its batch flushed, with the
	// frame's publish-to-flush lag.
	OnDeliver func(fr *Frame, lagNS int64)
	// OnDrop is called once per frame that was enqueued (or offered) but
	// never delivered: overflow, write failure, or queue close.
	OnDrop func(fr *Frame)
	// OnFlush is called after each successful flush with the batch size —
	// the coalescing factor (delivered frames per flush) falls out of it.
	OnFlush func(frames int)
	// OnFail is called at most once, when the queue enters the failed
	// state (flush error or Disconnect overflow). Typically closes the
	// sink's connection and removes its membership. Never called for a
	// plain Close.
	OnFail func(err error)
	// OnWriter is called with +1 when a writer pass takes over draining (a
	// spawned writer goroutine, or a DrainNow call doing its work) and -1
	// when that pass ends — an active-writer gauge falls out of it, making
	// the spawn-on-demand claim ("zero goroutines when idle") observable.
	// Calls are balanced on every path.
	OnWriter func(delta int)
	// Manual disables the writer goroutine: frames accumulate until the
	// owner calls DrainNow. Benchmarks use it to measure the per-delivery
	// path without scheduler noise.
	Manual bool
}

// Queue is one sink's bounded outbound queue. Enqueue never blocks and
// never writes; a dedicated writer goroutine — spawned on demand when the
// queue goes non-empty, gone when it drains — performs the actual flushes.
// A million idle sinks therefore cost a million small structs and zero
// goroutines, while an active sink has exactly one writer coalescing its
// backlog.
type Queue struct {
	cfg Config

	mu      sync.Mutex
	pending []*Frame // frames awaiting the writer, arrival order
	running bool     // a writer goroutine is live (or about to be)
	closed  bool
	failed  bool

	// spare is the drained batch's backing array, recycled as the next
	// pending slice so steady-state enqueues allocate nothing. Only the
	// writer touches it, and writer passes are serialized by `running`.
	spare []*Frame

	drainFn func() // q.drain, bound once so spawning a writer allocates nothing
}

// NewQueue returns a queue for one sink. Flush must be set.
func NewQueue(cfg Config) *Queue {
	if cfg.Flush == nil {
		panic("fanout: Config.Flush is required")
	}
	if cfg.Cap <= 0 {
		cfg.Cap = DefaultCap
	}
	q := &Queue{cfg: cfg}
	q.drainFn = q.drain
	return q
}

// Enqueue offers one frame to the sink, taking ownership of one reference
// whether or not the frame is admitted. It never blocks: a full queue
// applies the overflow policy, a closed or failed queue drops. Returns
// whether the frame was admitted.
func (q *Queue) Enqueue(fr *Frame) bool {
	if q.cfg.OnEnqueue != nil {
		q.cfg.OnEnqueue(fr)
	}
	q.mu.Lock()
	if q.closed || q.failed {
		q.mu.Unlock()
		q.finishDrop(fr)
		return false
	}
	if len(q.pending) >= q.cfg.Cap {
		if q.cfg.Policy == Disconnect {
			backlog := q.takeAllLocked()
			q.failed = true
			q.mu.Unlock()
			q.dropAll(backlog)
			q.finishDrop(fr)
			if q.cfg.OnFail != nil {
				q.cfg.OnFail(ErrOverflow)
			}
			return false
		}
		q.mu.Unlock()
		q.finishDrop(fr)
		return false
	}
	q.pending = append(q.pending, fr)
	spawn := !q.running && !q.cfg.Manual
	if spawn {
		q.running = true
	}
	q.mu.Unlock()
	if spawn {
		if q.cfg.OnWriter != nil {
			q.cfg.OnWriter(1)
		}
		go q.drainFn()
	}
	return true
}

// drain is the writer: it repeatedly swaps out everything pending and
// flushes it as one batch, exiting when the queue is empty, closed, or
// failed. Frames that arrive while a flush is in progress coalesce into
// the next batch — backlog converts directly into batching.
func (q *Queue) drain() {
	for {
		q.mu.Lock()
		if q.closed || q.failed || len(q.pending) == 0 {
			q.running = false
			q.mu.Unlock()
			if q.cfg.OnWriter != nil {
				q.cfg.OnWriter(-1)
			}
			return
		}
		batch := q.pending
		q.pending = q.spare[:0]
		q.mu.Unlock()
		q.flushBatch(batch)
		q.spare = batch[:0]
	}
}

// DrainNow synchronously runs one writer pass over everything currently
// pending. On Manual queues it is the only way frames move; on
// writer-backed queues it is a no-op while a writer pass is in flight.
// Returns the number of frames flushed or dropped.
func (q *Queue) DrainNow() int {
	q.mu.Lock()
	if q.closed || q.failed || q.running || len(q.pending) == 0 {
		q.mu.Unlock()
		return 0
	}
	q.running = true
	batch := q.pending
	q.pending = q.spare[:0]
	q.mu.Unlock()
	if q.cfg.OnWriter != nil {
		q.cfg.OnWriter(1)
	}
	n := len(batch)
	q.flushBatch(batch)
	q.spare = batch[:0]
	q.mu.Lock()
	q.running = false
	q.mu.Unlock()
	if q.cfg.OnWriter != nil {
		q.cfg.OnWriter(-1)
	}
	return n
}

// flushBatch writes one batch and settles every frame in it exactly once.
func (q *Queue) flushBatch(batch []*Frame) {
	err := q.cfg.Flush(batch)
	if err == nil {
		if q.cfg.OnFlush != nil {
			q.cfg.OnFlush(len(batch))
		}
		now := time.Now()
		for i, fr := range batch {
			if q.cfg.OnDeliver != nil {
				lag := now.Sub(fr.T0).Nanoseconds()
				if lag < 0 {
					lag = 0
				}
				q.cfg.OnDeliver(fr, lag)
			}
			fr.Release()
			batch[i] = nil
		}
		return
	}
	q.dropAll(batch)
	q.fail(err)
}

// fail moves the queue to the failed state, drops any backlog that raced
// in, and notifies OnFail once.
func (q *Queue) fail(err error) {
	q.mu.Lock()
	if q.failed || q.closed {
		q.mu.Unlock()
		return
	}
	q.failed = true
	backlog := q.takeAllLocked()
	q.mu.Unlock()
	q.dropAll(backlog)
	if q.cfg.OnFail != nil {
		q.cfg.OnFail(err)
	}
}

// Close stops the queue: everything still pending is dropped (with
// accounting) and later Enqueues are rejected. Idempotent; does not fire
// OnFail.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	backlog := q.takeAllLocked()
	q.mu.Unlock()
	q.dropAll(backlog)
}

func (q *Queue) takeAllLocked() []*Frame {
	backlog := q.pending
	q.pending = nil
	return backlog
}

func (q *Queue) dropAll(frames []*Frame) {
	for i, fr := range frames {
		q.finishDrop(fr)
		frames[i] = nil
	}
}

func (q *Queue) finishDrop(fr *Frame) {
	if q.cfg.OnDrop != nil {
		q.cfg.OnDrop(fr)
	}
	fr.Release()
}

// Depth reports the frames currently queued (not counting a batch mid-
// flush).
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Idle reports whether the queue is empty with no writer pass in flight.
func (q *Queue) Idle() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending) == 0 && !q.running
}

// Failed reports whether the queue hit a write failure or Disconnect
// overflow.
func (q *Queue) Failed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.failed
}
