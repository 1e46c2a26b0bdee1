// Package fanout is the event domain's delivery engine: refcounted shared
// frames, bounded per-sink writer queues, and coalesced flushes.
//
// The serial fan-out it replaces walked every sink under the channel lock
// and performed one blocking write-plus-flush per sink per event, so one
// stalled consumer head-of-line-blocked the whole channel and each delivery
// was its own syscall. Here the publisher's encoded bytes are wrapped once
// in a refcounted pooled Frame and enqueued to every sink by pointer; each
// sink owns a bounded Queue drained by an on-demand writer goroutine that
// flushes everything pending in one batch — so a slow sink fills (only) its
// own queue, and N backlogged frames cost one flush. The package is
// transport-agnostic: the flush callback is the only thing that knows about
// wire connections, which is what lets tests and benchmark/ drive the same
// engine with no socket behind it.
package fanout

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pbio"
	"repro/internal/trace"
)

// Frame is one encoded event shared across every sink queue it was fanned
// out to. The frame owns the storage behind Data and is pooled with it, so
// a steady event stream allocates nothing per message. Reference
// discipline: NewFrame returns the frame holding one reference (the
// publisher's); Queue.Enqueue takes ownership of one reference per call
// (callers Retain first when sharing); the frame returns to its pool when
// the last reference is released.
type Frame struct {
	refs atomic.Int32

	// Data is the encoded enveloped message (fingerprint + payload), a
	// private copy of the publisher's bytes — publishers reuse their read
	// buffer for the next message while sinks still drain this one.
	Data []byte
	// Format is the wire format announced for Data.
	Format *pbio.Format
	// Ctx is the event's trace context, relayed to every sink.
	Ctx trace.Context
	// T0 is the publish receipt time; delivery lag is measured against it.
	T0 time.Time
}

// Frames are pooled by the capacity of their storage, one pool per power
// of two from 1<<minFrameClass to 1<<maxFrameClass bytes, and NewFrame
// takes a frame from the smallest class that holds the message. A frame
// therefore holds at most twice its message: a stream of 40-byte events
// keeps 64-byte frames, not one 4 KiB scratch buffer each, so a backlog or
// the frames in flight when a burst ends cost what they carry. Messages
// larger than the top class get exact storage and are not pooled.
const (
	minFrameClass = 6  // 64 B
	maxFrameClass = 20 // 1 MiB
)

var framePools [maxFrameClass - minFrameClass + 1]sync.Pool

// frameClass is the index in framePools of the smallest class holding n
// bytes; len(framePools) or more when n is larger than the top class.
func frameClass(n int) int {
	if n <= 1<<minFrameClass {
		return 0
	}
	return bits.Len(uint(n-1)) - minFrameClass
}

// liveFrames counts frames handed out by NewFrame and not yet fully
// released — the leak instrumentation the churn tests assert against.
var liveFrames atomic.Int64

// NewFrame wraps one encoded event in a pooled, refcounted frame, copying
// data exactly once regardless of how many sinks it will reach. The
// returned frame holds one reference.
func NewFrame(data []byte, f *pbio.Format, ctx trace.Context, t0 time.Time) *Frame {
	var fr *Frame
	if c := frameClass(len(data)); c < len(framePools) {
		if v := framePools[c].Get(); v != nil {
			fr = v.(*Frame)
		} else {
			fr = &Frame{Data: make([]byte, 0, 1<<(c+minFrameClass))}
		}
	} else {
		fr = &Frame{Data: make([]byte, 0, len(data))}
	}
	fr.Data = append(fr.Data[:0], data...)
	fr.Format = f
	fr.Ctx = ctx
	fr.T0 = t0
	fr.refs.Store(1)
	liveFrames.Add(1)
	return fr
}

// Retain adds a reference. Only a goroutine that already holds a reference
// may call it.
func (fr *Frame) Retain() { fr.refs.Add(1) }

// Release drops a reference; the last release returns the frame, with its
// storage, to its pool.
func (fr *Frame) Release() {
	n := fr.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("fanout: Frame released more times than retained")
	}
	fr.Data = fr.Data[:0]
	fr.Format = nil
	fr.Ctx = trace.Context{}
	liveFrames.Add(-1)
	if c := frameClass(cap(fr.Data)); c < len(framePools) {
		framePools[c].Put(fr)
	}
}

// LiveFrames reports how many frames are currently held outside the pool.
// It is the refcount-leak check: once every queue has drained and closed,
// it must read zero.
func LiveFrames() int64 { return liveFrames.Load() }
