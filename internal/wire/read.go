package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/pbio"
	"repro/internal/trace"
)

// parkedFrame is a data frame held back because its format is not yet known:
// the body is a private copy (a frame body aliases the read buffer only until
// the next read), tctx is the trace context that was announced for it.
type parkedFrame struct {
	fp   uint64
	body []byte
	tctx trace.Context
}

// ReadRecord reads frames until a data frame arrives, returning the decoded
// record in its wire format. Format control frames encountered on the way
// are absorbed: the format cache is updated and transformations are handed
// to the attached Morpher. io.EOF is returned when the peer closes cleanly.
func (c *Conn) ReadRecord() (*pbio.Record, error) {
	body, f, err := c.ReadEncoded()
	if err != nil {
		return nil, err
	}
	return pbio.DecodeRecord(body, f)
}

// ReadEncoded reads frames until a data frame arrives, returning its
// enveloped bytes together with the wire format the peer announced for them,
// without decoding the payload. Format control frames encountered on the way
// are absorbed exactly as in ReadRecord.
//
// The returned slice aliases the connection's read buffer (or, for a frame
// over 64 KiB, a pooled buffer of the frame's own size): it is valid only
// until the next Read*/Serve call and must be copied if retained. The
// payload is NOT validated against the format — pass it to
// Morpher.DeliverEncoded (which validates on whichever lane it takes) or to
// pbio.DecodeRecord.
func (c *Conn) ReadEncoded() ([]byte, *pbio.Format, error) {
	for {
		// Parked frames whose format has since been announced replay first,
		// in arrival order, before any new frame is read.
		if body, f, tctx, ok := c.unparkReady(); ok {
			c.rctx = tctx
			return body, f, nil
		}
		typ, body, err := c.readFrame()
		if err != nil {
			return nil, nil, err
		}
		switch typ {
		case frameFormat:
			var t0 time.Time
			if c.formatNS != nil {
				t0 = time.Now()
			}
			if err := c.handleFormatFrame(body); err != nil {
				// Surface malformed format meta-data loudly: count it (the
				// satellite fix for silently indistinguishable drops) and
				// return the error to the caller.
				c.stats.formatErrors.inc()
				return nil, nil, err
			}
			c.formatNS.ObserveNS(time.Since(t0).Nanoseconds())
		case frameTrace:
			tctx, err := trace.ParseWire(body)
			if err != nil {
				c.stats.corruptFrames.inc()
				return nil, nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
			}
			c.pending = tctx
			if c.tracer.Enabled() && tctx.Sampled {
				c.rspan = c.tracer.StartSpan(tctx, trace.StageFrameRead)
			}
		case frameData:
			fp, err := pbio.PeekFingerprint(body)
			if err != nil {
				c.stats.corruptFrames.inc()
				return nil, nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
			}
			// Consume the out-of-band context announced for this frame. When
			// this side traces, downstream spans parent under its frame_read
			// span; otherwise the announced context relays through untouched.
			tctx := c.pending
			c.pending = trace.Context{}
			if c.rspan.Recording() {
				c.rspan.FP = fp
				c.rspan.N = int64(len(body))
				c.rspan.End()
				tctx = c.rspan.Context()
				c.rspan = trace.Span{}
			}
			f, ok := c.recvFormats[fp]
			if !ok && c.resolver != nil {
				// The fingerprint was never announced in-band: the peer is
				// relying on the shared registry. Resolve lazily, once — the
				// format cache makes every later message of this format free.
				if rf, xforms, rerr := c.resolver.ResolveFormat(fp); rerr == nil && rf != nil && rf.Fingerprint() == fp {
					if err = c.adoptFormat(rf, xforms, true); err != nil {
						return nil, nil, err
					}
					c.stats.formatsResolved.inc()
					f, ok = rf, true
				}
			}
			if !ok {
				// Registry miss (down, unknown, or no resolver configured in a
				// registry deployment): park the frame and ask the peer to
				// re-announce the format in-band. Without a resolver this is
				// the legacy hard failure.
				if c.resolver == nil {
					return nil, nil, fmt.Errorf("%w: %016x", ErrUnknownFormat, fp)
				}
				if err := c.parkFrame(fp, body, tctx); err != nil {
					return nil, nil, err
				}
				continue
			}
			c.rctx = tctx
			return body, f, nil
		case frameFormatReq:
			if len(body) != 8 {
				c.stats.corruptFrames.inc()
				return nil, nil, fmt.Errorf("%w: format request body %d bytes, want 8", ErrBadFrame, len(body))
			}
			c.stats.formatReqRecv.inc()
			if err := c.reannounce(binary.LittleEndian.Uint64(body)); err != nil {
				return nil, nil, err
			}
		default:
			// A frame type of zero means the stream is desynchronized or the
			// peer is hostile: fail loudly. A kind claimed by a control hook
			// is dispatched to it; any other kind is a well-formed control
			// frame from a newer peer — skip it so out-of-band meta-data can
			// evolve without breaking older receivers.
			if typ == 0 {
				c.stats.corruptFrames.inc()
				return nil, nil, fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, typ)
			}
			if hook := c.hooks[typ]; hook != nil {
				c.stats.ctrlRecv.inc()
				if err := hook(body); err != nil {
					return nil, nil, err
				}
				continue
			}
			c.stats.unknownFrames.inc()
		}
	}
}

// parkedFrameLimit and parkedByteLimit bound how much a peer that never
// answers re-announcement requests can make us buffer.
const (
	parkedFrameLimit = 64
	parkedByteLimit  = 1 << 20
)

// parkFrame copies a data frame whose format is still unknown aside and
// (once per fingerprint) asks the peer to re-announce the format in-band.
func (c *Conn) parkFrame(fp uint64, body []byte, tctx trace.Context) error {
	if len(c.parked) >= parkedFrameLimit || c.parkedBytes+len(body) > parkedByteLimit {
		return fmt.Errorf("%w: %016x (re-announcement backlog full: %d frames, %d bytes)",
			ErrUnknownFormat, fp, len(c.parked), c.parkedBytes)
	}
	cp := make([]byte, len(body))
	copy(cp, body)
	c.parked = append(c.parked, parkedFrame{fp: fp, body: cp, tctx: tctx})
	c.parkedBytes += len(cp)
	c.stats.parkedFrames.inc()
	if c.requested == nil {
		c.requested = make(map[uint64]bool)
	}
	if !c.requested[fp] {
		c.requested[fp] = true
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], fp)
		if err := c.writeFrame(frameFormatReq, b[:]); err != nil {
			return err
		}
	}
	return nil
}

// unparkReady returns the oldest parked frame whose format has been announced
// since it was parked, if any.
func (c *Conn) unparkReady() ([]byte, *pbio.Format, trace.Context, bool) {
	for i := range c.parked {
		f, ok := c.recvFormats[c.parked[i].fp]
		if !ok {
			continue
		}
		pf := c.parked[i]
		c.parked = append(c.parked[:i], c.parked[i+1:]...)
		c.parkedBytes -= len(pf.body)
		return pf.body, f, pf.tctx, true
	}
	return nil, nil, trace.Context{}, false
}

// reannounce answers a peer's frameFormatReq: if this connection has sent (or
// suppressed) the format, its control frame is emitted again, in-band,
// regardless of suppression — the peer just told us its registry path failed.
func (c *Conn) reannounce(fp uint64) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	f, ok := c.announced[fp]
	if !ok {
		return nil // never ours to announce; ignore
	}
	if err := c.beginWriteLocked(); err != nil {
		return err
	}
	return c.endWriteLocked(c.writeFormatLocked(f, c.declared[fp]))
}

// Serve reads messages until EOF or error, delivering each through the
// attached Morpher. It is the receive loop of a morphing-aware endpoint.
// Messages stay in encoded form across the transport boundary: the Morpher
// decides per cached plan whether a delivery can complete on the byte-level
// splice lane or needs a materialized Record.
//
// A delivery the Morpher rejects (core.ErrRejected — no registered format
// within thresholds) is a per-message outcome, not a connection failure: the
// frame is counted (Stats.RejectedDeliveries) and the loop keeps reading.
// Tearing the connection down here would turn one unroutable format into the
// silent loss of every later message on the stream — including formats the
// receiver handles fine.
//
// Only an end of stream between frames is a clean return; a stream that ends
// inside a frame returns the ErrBadFrame that wraps its EOF.
func (c *Conn) Serve() error {
	if c.morpher == nil {
		return errors.New("wire: Serve requires a Morpher (use WithMorpher)")
	}
	for {
		body, f, err := c.ReadEncoded()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := c.morpher.DeliverEncodedCtx(body, f, c.rctx); err != nil {
			if errors.Is(err, core.ErrRejected) {
				c.stats.rejectedDeliveries.inc()
				continue
			}
			return err
		}
	}
}
