package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/pbio"
	"repro/internal/trace"
)

// Declare associates transformation code with a format, mirroring the
// paper's "the writer may also specify a set of transformations". The
// transforms travel in the same control frame as the format description,
// emitted once, before the format's first data frame. Declare replaces any
// previous declaration for the format; it has no effect once the format
// frame has been sent.
func (c *Conn) Declare(f *pbio.Format, xforms ...*core.Xform) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.sent[f.Fingerprint()] {
		return
	}
	c.declared[f.Fingerprint()] = xforms
}

// WriteRecord sends rec, pushing its format meta-data (and declared
// transforms) out-of-band if this connection has not sent that format
// before. It encodes rec into one exact-size buffer and sends it with
// WriteEncoded; a hot path that sends many records keeps its own encode
// buffer and calls WriteEncodedBatchCtx (echo's Publish does).
func (c *Conn) WriteRecord(rec *pbio.Record) error {
	return c.WriteEncoded(rec.Format(), pbio.EncodeRecord(rec))
}

// WriteEncoded sends an already-encoded enveloped message of format f,
// pushing f's meta-data out-of-band first when needed — the zero-copy send
// half of the encoded fast path: relays and fan-out servers forward bytes
// they received without ever materializing a Record. The message fingerprint
// must match f. It is WriteEncodedBatchCtx with a batch of one, built on the
// stack: the same lock, checks, frames and flush, by the same code.
func (c *Conn) WriteEncoded(f *pbio.Format, data []byte) error {
	one := [1]BatchFrame{{Data: data, Format: f}}
	return c.WriteEncodedBatchCtx(one[:])
}

// BatchFrame is one already-encoded message in a WriteEncodedBatchCtx call:
// the enveloped bytes, the format they carry, and the trace context to
// announce ahead of them when sampled.
type BatchFrame struct {
	Data   []byte
	Format *pbio.Format
	Ctx    trace.Context
}

// WriteEncodedBatchCtx sends n already-encoded messages under one write lock
// — the coalescing half of the fan-out delivery engine: a writer that found N
// frames backlogged assembles them in one pooled buffer and hands the stream
// one Write per 64 KiB (maxWriteBuf) of frames instead of one per frame. It is
// the connection's one data-write path (WriteRecord and WriteEncoded are
// batches of one through it), so per-frame semantics are the same however a
// message is sent: the fingerprint in the bytes must match the frame's format,
// format meta-data is pushed out-of-band before a fingerprint's first data
// frame, and a sampled trace context is announced immediately before its
// frame. Frames are written in order; the first error stops the batch and is
// returned. A frame that fails its fingerprint check leaves the frames before
// it flushed best-effort, so the peer is never left mid-batch short of a
// transport failure.
func (c *Conn) WriteEncodedBatchCtx(batch []BatchFrame) error {
	if len(batch) == 0 {
		return nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.beginWriteLocked(); err != nil {
		return err
	}
	return c.endWriteLocked(c.writeBatchLocked(batch))
}

func (c *Conn) writeBatchLocked(batch []BatchFrame) error {
	for i := range batch {
		bf := &batch[i]
		fp, err := pbio.PeekFingerprint(bf.Data)
		if err == nil && fp != bf.Format.Fingerprint() {
			err = fmt.Errorf("%w: message %016x, format %q is %016x",
				pbio.ErrFingerprint, fp, bf.Format.Name(), bf.Format.Fingerprint())
		}
		if err != nil {
			return err
		}
		if err := c.ensureFormatLocked(bf.Format, fp); err != nil {
			return err
		}
		if err := c.writeDataLocked(bf.Data, fp, bf.Ctx); err != nil {
			return err
		}
	}
	return nil
}

// ensureFormatLocked makes the peer able to name fp before its first data
// frame: normally by writing the format control frame, or — when the
// suppressor confirms the shared registry holds the format — by skipping it
// entirely, leaving resolution to the peer's registry client. Either way the
// format is remembered for later frameFormatReq re-announcements.
func (c *Conn) ensureFormatLocked(f *pbio.Format, fp uint64) error {
	if c.sent[fp] {
		return nil
	}
	c.announced[fp] = f
	if c.suppress != nil && c.suppress(f) {
		c.stats.formatsSuppressed.inc()
		c.sent[fp] = true
		return nil
	}
	if err := c.writeFormatLocked(f, c.declared[fp]); err != nil {
		return err
	}
	c.sent[fp] = true
	return nil
}

// WriteControl sends one custom control frame (kind MinCustomFrame or above)
// in one Write. Receivers that attached a matching WithControlHook dispatch
// the body to it; others skip the frame, counting it under UnknownFrames —
// the forward-evolution discipline that lets new out-of-band protocols ride
// existing connections.
func (c *Conn) WriteControl(kind byte, body []byte) error {
	if kind < MinCustomFrame {
		return fmt.Errorf("%w: %d (custom kinds start at %d)", ErrReservedFrame, kind, MinCustomFrame)
	}
	return c.writeFrame(kind, body)
}

// writeFrame sends one frame in a write call of its own.
func (c *Conn) writeFrame(typ byte, body []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.beginWriteLocked(); err != nil {
		return err
	}
	return c.endWriteLocked(c.writeFrameLocked(typ, body))
}

// writeDataLocked appends the trace announcement (when tctx is sampled) and
// the data frame to the call's buffer, timing the pair as a frame_write span
// when this side traces.
func (c *Conn) writeDataLocked(body []byte, fp uint64, tctx trace.Context) error {
	var fw trace.Span
	if c.tracer.Enabled() && tctx.Sampled {
		fw = c.tracer.StartSpan(tctx, trace.StageFrameWrite)
		fw.FP = fp
		fw.N = int64(len(body))
	}
	if tctx.Sampled && tctx.Valid() {
		var scratch [trace.ContextWireSize]byte
		wireCtx := tctx.AppendWire(scratch[:0])
		if err := c.writeFrameLocked(frameTrace, wireCtx); err != nil {
			fw.EndErr(err)
			return err
		}
		if c.tapOn() {
			c.tap.CaptureFrame(TapWrite, frameTrace, wireCtx, tctx)
		}
	}
	err := c.writeFrameLocked(frameData, body)
	if err == nil && c.tapOn() {
		c.tap.CaptureFrame(TapWrite, frameData, body, tctx)
	}
	fw.EndErr(err)
	return err
}

func (c *Conn) writeFormatLocked(f *pbio.Format, xforms []*core.Xform) error {
	return c.writeFrameLocked(frameFormat, AppendFormatFrame(nil, f, xforms))
}

// maxWriteBuf is the most bytes a write call assembles before it hands them
// to the stream, so a call's frames leave in one Write per 64 KiB. A frame
// too large for the buffer leaves with its header in the buffer and its body
// straight from the caller's slice, uncopied.
const maxWriteBuf = 64 << 10

// writeBufs holds the buffers write calls assemble their frames in. A call
// takes one under the write lock and returns it before unlocking, so no
// connection holds a write buffer between calls. A buffer starts empty and
// doubles as calls need it, up to maxWriteBuf: a connection that only ever
// sends a small frame per call never makes one larger than that.
var writeBufs = sync.Pool{New: func() any { return new([]byte) }}

// beginWriteLocked starts a write call: it takes a buffer from writeBufs, or
// returns the connection's sticky write error without taking one.
func (c *Conn) beginWriteLocked() error {
	if c.werr != nil {
		return c.werr
	}
	c.wbuf = writeBufs.Get().(*[]byte)
	return nil
}

// endWriteLocked ends a write call: it hands what the call assembled to the
// stream, best-effort when err already says why the call stopped, and
// returns the buffer to writeBufs. It returns err, or else the flush's error.
func (c *Conn) endWriteLocked(err error) error {
	ferr := c.flushLocked()
	writeBufs.Put(c.wbuf)
	c.wbuf = nil
	if err != nil {
		return err
	}
	return ferr
}

// flushLocked hands the assembled bytes to the stream in one Write.
func (c *Conn) flushLocked() error {
	b := *c.wbuf
	*c.wbuf = b[:0]
	if len(b) == 0 {
		return c.werr
	}
	return c.streamWriteLocked(b)
}

// streamWriteLocked writes b to the stream unless an earlier write failed.
// The first failed or short Write is kept and returned by every later one,
// as bufio.Writer does: once a frame may have reached the peer in part, no
// other frame may follow it.
func (c *Conn) streamWriteLocked(b []byte) error {
	if c.werr != nil {
		return c.werr
	}
	n, err := c.nc.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	c.werr = err
	return err
}

// writeFrameLocked appends one frame to the call's buffer, first handing
// the stream what is assembled when the frame would not fit behind it.
func (c *Conn) writeFrameLocked(typ byte, body []byte) error {
	n := 1 + uvarintLen(uint64(len(body)))
	inline := n+len(body) <= maxWriteBuf
	need := n
	if inline {
		need += len(body)
	}
	if len(*c.wbuf)+need > maxWriteBuf {
		if err := c.flushLocked(); err != nil {
			return err
		}
	}
	b := *c.wbuf
	if cap(b)-len(b) < need {
		grown := make([]byte, len(b), min(max(2*cap(b), len(b)+need), maxWriteBuf))
		copy(grown, b)
		b = grown
	}
	b = append(b, typ)
	b = binary.AppendUvarint(b, uint64(len(body)))
	if inline {
		*c.wbuf = append(b, body...)
	} else {
		*c.wbuf = b
		if err := c.flushLocked(); err != nil {
			return err
		}
		if err := c.streamWriteLocked(body); err != nil {
			return err
		}
	}
	c.stats.bytesSent.add(uint64(n + len(body)))
	switch typ {
	case frameData:
		c.stats.dataSent.inc()
	case frameTrace:
		c.stats.traceSent.inc()
	case frameFormat:
		c.stats.formatSent.inc()
	case frameFormatReq:
		c.stats.formatReqSent.inc()
	default:
		c.stats.ctrlSent.inc()
	}
	// Data and trace frames are captured by the data-write callers, which
	// hold the real trace context; this site covers format and control
	// frames. Ordering the kind compares first keeps the per-data-frame
	// cost at two predicted branches with no loads.
	if typ != frameData && typ != frameTrace && c.tapOn() {
		c.tap.CaptureFrame(TapWrite, typ, body, trace.Context{})
	}
	return nil
}
