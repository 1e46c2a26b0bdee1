package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Frame types. Everything except frameData is a control frame; receivers
// skip well-formed control frames of kinds they do not implement (counting
// them as UnknownFrames), so new out-of-band meta-data — like the trace
// context introduced as kind 3 — never breaks older peers.
const (
	frameFormat    byte = 1 // body: format blob + associated transform blobs
	frameData      byte = 2 // body: enveloped record (fingerprint + payload)
	frameTrace     byte = 3 // body: 25-byte trace context for the next data frame
	frameFormatReq byte = 4 // body: 8-byte fingerprint — "re-announce this format in-band"
)

// FrameRegistry is the control-frame kind carrying format-registry RPCs
// (internal/registry). Kinds below MinCustomFrame are reserved by the wire
// layer itself; subsystems layering their own out-of-band protocols on this
// framing use WriteControl/WithControlHook with kinds from MinCustomFrame up.
const (
	MinCustomFrame byte = 5
	FrameRegistry  byte = 5

	// FrameCapture carried the records of version-1 .morphcap capture files
	// (internal/tap). Version 2 writes captures as ordinary data frames; the
	// kind stays reserved so a reader can recognise, and refuse, a version-1
	// file.
	FrameCapture byte = 6
)

// Exported aliases for the reserved frame kinds, for consumers that inspect
// frames from the outside (the tap flight recorder and its decoder) without
// being able to emit them.
const (
	KindFormat    byte = frameFormat
	KindData      byte = frameData
	KindTrace     byte = frameTrace
	KindFormatReq byte = frameFormatReq
)

// FrameKindName names a frame kind for human-facing output (tapz, morphtap).
func FrameKindName(k byte) string {
	switch k {
	case frameFormat:
		return "format"
	case frameData:
		return "data"
	case frameTrace:
		return "trace"
	case frameFormatReq:
		return "format_req"
	case FrameRegistry:
		return "registry"
	case FrameCapture:
		return "capture"
	default:
		return fmt.Sprintf("kind_%d", k)
	}
}

// ParseFrameKind is FrameKindName's inverse, for filters that name a kind
// (tapz kind=, morphtap -kind): a kind name, case-insensitively ("formatreq"
// also names format_req), or the byte itself as "kind_N" or plain "N".
func ParseFrameKind(s string) (byte, error) {
	name := strings.ToLower(s)
	if name == "formatreq" {
		name = "format_req"
	}
	for _, k := range []byte{frameFormat, frameData, frameTrace, frameFormatReq, FrameRegistry, FrameCapture} {
		if FrameKindName(k) == name {
			return k, nil
		}
	}
	n, err := strconv.ParseUint(strings.TrimPrefix(name, "kind_"), 10, 8)
	if err != nil {
		return 0, fmt.Errorf("bad kind %q: want a kind name or numeric byte", s)
	}
	return byte(n), nil
}

// TapDir is the direction of a captured frame relative to the tapped
// connection.
type TapDir uint8

const (
	TapRead  TapDir = 0 // frame arrived from the peer
	TapWrite TapDir = 1 // frame was sent to the peer
)

// String returns "read" or "write".
func (d TapDir) String() string {
	if d == TapWrite {
		return "write"
	}
	return "read"
}

// FrameTap observes every frame a connection reads or writes — the hook the
// flight recorder (internal/tap) hangs off the framing layer. body is valid
// only for the duration of the call: on the read side it aliases the
// connection's read buffer, which the next read overwrites; tctx is the
// trace context riding with a data frame (zero otherwise). CaptureFrame is
// invoked under the connection's write lock on the write side and from the
// read goroutine on the read side, so a given direction is never reentered
// concurrently, but the two directions may overlap.
//
// ArmedFlag exposes the tap's armed state, read once when the tap is
// attached: the connection decides "capture or not" with one direct atomic
// load per frame instead of an interface call with a trace context copied
// into its arguments. This is what keeps the disarmed hook inside its floor:
// <2% on the splice lane and 0 allocations. A nil flag attaches nothing.
type FrameTap interface {
	CaptureFrame(dir TapDir, kind byte, body []byte, tctx trace.Context)
	ArmedFlag() *atomic.Bool
}

// DefaultMaxFrame bounds incoming frame bodies; a peer cannot force an
// arbitrary allocation with a forged length header.
const DefaultMaxFrame = 64 << 20

// readFrame returns the next frame, parsed in place. A body whose frame fits
// the read buffer aliases that buffer and stays valid until the next
// readFrame call — the single-goroutine read-loop contract of Conn makes
// this safe, and it is why a steady message stream reads with zero
// per-frame allocations and one Read per buffer of frames. A larger body is
// read into memory of its own (readLargeBody).
//
// An end of stream between frames is io.EOF, untouched; one inside a frame
// is ErrBadFrame wrapping io.ErrUnexpectedEOF, so stream-over-file readers
// (spool) can tell a torn tail from corruption. A length over the limit is
// ErrFrameTooLarge, returned before anything is allocated for the body.
func (c *Conn) readFrame() (byte, []byte, error) {
	if c.rpos == c.rend {
		if err := c.fill(1); err != nil {
			return 0, nil, err
		}
	}
	// The length varint is parsed as far as it has arrived: a header is
	// never waited on beyond the bytes the peer actually sent.
	var size uint64
	hdr := 0
	for hdr == 0 {
		n := 0
		size, n = binary.Uvarint(c.rbuf[c.rpos+1 : c.rend])
		switch {
		case n > 0:
			hdr = 1 + n
		case n < 0:
			c.stats.corruptFrames.inc()
			return 0, nil, fmt.Errorf("%w: bad length: varint overflows a 64-bit integer", ErrBadFrame)
		default:
			if err := c.fill(c.rend - c.rpos + 1); err != nil {
				c.stats.corruptFrames.inc()
				return 0, nil, fmt.Errorf("%w: bad length: %w", ErrBadFrame, unexpectedEOF(err))
			}
		}
	}
	typ := c.rbuf[c.rpos]
	if size > uint64(c.maxFrame) {
		c.stats.oversizedFrames.inc()
		return 0, nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, size, c.maxFrame)
	}
	n := hdr + int(size)
	var body []byte
	if n <= maxReadBuf {
		for c.rend-c.rpos < n {
			if err := c.fill(n); err != nil {
				c.stats.corruptFrames.inc()
				return 0, nil, fmt.Errorf("%w: truncated body: %w", ErrBadFrame, unexpectedEOF(err))
			}
		}
		// Capped, so a caller appending to the body cannot overwrite the
		// frames behind it.
		body = c.rbuf[c.rpos+hdr : c.rpos+n : c.rpos+n]
		c.rpos += n
	} else {
		c.rpos += hdr
		var err error
		if body, err = c.readLargeBody(int(size)); err != nil {
			c.stats.corruptFrames.inc()
			return 0, nil, fmt.Errorf("%w: truncated body: %w", ErrBadFrame, unexpectedEOF(err))
		}
	}
	c.stats.bytesRecv.add(uint64(n))
	switch typ {
	case frameData:
		c.stats.dataRecv.inc()
	case frameFormat:
		c.stats.formatRecv.inc()
	case frameTrace:
		c.stats.traceRecv.inc()
	}
	if c.tapOn() {
		// c.pending is the context the most recent frameTrace frame announced
		// for the data frame that follows it; readFrame runs on the single
		// read goroutine, so it is current here.
		var tctx trace.Context
		if typ == frameData {
			tctx = c.pending
		}
		c.tap.CaptureFrame(TapRead, typ, body, tctx)
	}
	return typ, body, nil
}

// readLargeBody reads the size-byte body of a frame too large for the read
// buffer, starting with its bytes already buffered. The body grows as its
// bytes arrive, doubling from twice the read buffer up to size, so a forged
// length costs the receiver about what the peer actually sent, not what its
// header claimed.
func (c *Conn) readLargeBody(size int) ([]byte, error) {
	body := append(make([]byte, 0, min(size, 2*maxReadBuf)), c.rbuf[c.rpos:c.rend]...)
	c.rpos = c.rend
	err := c.rerr
	c.rerr = nil
	for err == nil && len(body) < size {
		if len(body) == cap(body) {
			grown := make([]byte, len(body), min(2*cap(body), size))
			copy(grown, body)
			body = grown
		}
		var n int
		n, err = io.ReadFull(c.nc, body[len(body):cap(body)])
		body = body[:len(body)+n]
	}
	return body, err
}

// unexpectedEOF names an end of stream inside a frame for what it is.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// minReadBuf is the read buffer a connection keeps between bursts, the
// memory a 4 KiB bufio.Reader held. maxReadBuf, the size of the pooled
// buffers reads grow into, is the write side's maxWriteBuf: a write call's
// Write arrives in one Read.
const (
	minReadBuf = 4 << 10
	maxReadBuf = maxWriteBuf
)

// readBufs holds the maxReadBuf buffers connections read into while reads
// fill their buffer. A connection returns its buffer once a read no longer
// fills it, so one waiting between frames for a peer that sends nothing
// holds only its minReadBuf buffer.
var readBufs = sync.Pool{New: func() any { b := make([]byte, maxReadBuf); return &b }}

// fill makes room for need bytes (at most maxReadBuf) from the next unread
// one and reads once from the stream, moving the unread tail to the front
// of the buffer the read goes into. That buffer is chosen at every fill:
// the pooled one when need does not fit the small one, or when
// the last read filled its buffer and a frame is in progress — frames
// straddle the buffer's end, so growing only into an empty buffer would
// never grow — and the small one otherwise, returning the pooled one. A
// stream error that arrived with data is returned by the next fill.
func (c *Conn) fill(need int) error {
	if err := c.rerr; err != nil {
		c.rerr = nil
		return err
	}
	tail := c.rend - c.rpos
	var buf []byte
	if need > minReadBuf || c.rfull && tail > 0 {
		if c.rpool == nil {
			c.rpool = readBufs.Get().(*[]byte)
		}
		buf = *c.rpool
	} else {
		if c.rsmall == nil {
			c.rsmall = make([]byte, minReadBuf)
		}
		buf = c.rsmall
	}
	copy(buf, c.rbuf[c.rpos:c.rend])
	if c.rpool != nil && &buf[0] != &(*c.rpool)[0] {
		readBufs.Put(c.rpool)
		c.rpool = nil
	}
	c.rbuf, c.rpos, c.rend = buf, 0, tail
	for range maxEmptyReads {
		n, err := c.nc.Read(buf[c.rend:])
		c.rend += n
		if n > 0 {
			c.rfull = c.rend == len(buf)
			c.rerr = err
			return nil
		}
		if err != nil {
			return err
		}
	}
	return io.ErrNoProgress
}

// maxEmptyReads is how many reads returning no data and no error fill
// takes before it gives up with io.ErrNoProgress, as bufio.Reader does.
const maxEmptyReads = 100

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
