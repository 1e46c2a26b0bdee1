package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/pbio"
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
// flight recorder (internal/tap) hangs off the framing layer. body aliases
// wire-owned memory valid only for the duration of the call; tctx is the
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

// readFrame returns the next frame. The body aliases a pooled buffer that
// stays valid until the next readFrame call, at which point it is recycled —
// the single-goroutine read-loop contract of Conn makes this safe, and it is
// why a steady message stream reads with zero per-frame allocations.
func (c *Conn) readFrame() (byte, []byte, error) {
	if c.held != nil {
		pbio.PutBuffer(c.held)
		c.held = nil
	}
	typ, err := c.br.ReadByte()
	if err != nil {
		return 0, nil, err // io.EOF passes through untouched
	}
	size, err := binary.ReadUvarint(c.br)
	if err != nil {
		c.stats.corruptFrames.inc()
		// The cause is wrapped (not just rendered) so stream-over-file readers
		// (spool) can tell a torn tail — EOF mid-frame — from corruption.
		return 0, nil, fmt.Errorf("%w: bad length: %w", ErrBadFrame, err)
	}
	if size > uint64(c.maxFrame) {
		c.stats.oversizedFrames.inc()
		return 0, nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, size, c.maxFrame)
	}
	c.held = pbio.GetBuffer(int(size))
	body := *c.held
	if _, err := io.ReadFull(c.br, body); err != nil {
		c.stats.corruptFrames.inc()
		return 0, nil, fmt.Errorf("%w: truncated body: %w", ErrBadFrame, err)
	}
	c.stats.bytesRecv.add(1 + uint64(uvarintLen(size)) + size)
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

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
