// Package spool persists message streams, extending morphing across *time*:
// the paper notes that, having no negotiation phase, message morphing "can
// address components separated in space and/or time" (§1). A process spools
// messages today; a reader built years later — against newer or older
// formats — replays the stream through its own Morpher and the recorded
// transformation meta-data bridges the generations, exactly as it would have
// on a live connection.
//
// A spool is simply the wire framing written to a byte stream: format
// control frames (with any associated E-Code transforms) followed by data
// frames. No separate schema store is needed; the stream is self-describing.
// It is the repository's one on-disk framing: registry snapshots and cursors
// and .morphcap captures are spools.
package spool

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/pbio"
	"repro/internal/wire"
)

// ErrTruncated is returned by Next when the stream ends in the middle of a
// frame: the signature of a torn write — the spooling process was killed
// mid-Append — rather than corruption. Every record before the torn tail is
// intact and has already been returned, so callers can treat it as end of
// stream (Replay does); it stays distinguishable from both a clean io.EOF
// and a generic decode failure for callers that must report data loss.
var ErrTruncated = errors.New("spool: truncated final frame")

// Stream adapts a one-way byte stream to the duplex wire.Stream a wire.Conn
// runs over. With no R, reads report io.EOF; with no W, writes are discarded
// (a replaying Conn writes only to answer frames a live peer would send).
// Close closes whichever of R and W is an io.Closer.
type Stream struct {
	R io.Reader
	W io.Writer
}

func (s Stream) Read(p []byte) (int, error) {
	if s.R == nil {
		return 0, io.EOF
	}
	return s.R.Read(p)
}

func (s Stream) Write(p []byte) (int, error) {
	if s.W == nil {
		return len(p), nil
	}
	return s.W.Write(p)
}

func (s Stream) Close() error {
	for _, v := range []any{s.R, s.W} {
		if c, ok := v.(io.Closer); ok {
			return c.Close()
		}
	}
	return nil
}

// Writer appends records to a spool.
type Writer struct{ conn *wire.Conn }

// NewWriter returns a Writer that frames records onto w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{conn: wire.NewStreamConn(Stream{W: w})}
}

// Create creates (or truncates) a spool file.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("spool: %w", err)
	}
	return NewWriter(f), nil
}

// Declare attaches transformation meta-data to a format before its first
// record is spooled, as on a live connection.
func (w *Writer) Declare(f *pbio.Format, xforms ...*core.Xform) {
	w.conn.Declare(f, xforms...)
}

// Append writes one record; the format's meta-data precedes its first
// record automatically. Every Append reaches the underlying writer before it
// returns. Append is safe for concurrent use: the underlying wire connection
// serializes frame writes, so records from concurrent producers interleave
// at record granularity (never mid-frame), though their relative order is
// unspecified.
func (w *Writer) Append(rec *pbio.Record) error {
	return w.conn.WriteRecord(rec)
}

// Close closes the underlying writer if it is an io.Closer.
func (w *Writer) Close() error {
	return w.conn.Close()
}

// Reader replays a spool.
type Reader struct {
	conn      *wire.Conn
	truncated bool
}

// NewReader returns a Reader over r. Options (such as wire.WithMorpher)
// apply to the replay connection.
func NewReader(r io.Reader, opts ...wire.Option) *Reader {
	return &Reader{conn: wire.NewStreamConn(Stream{R: r}, opts...)}
}

// Open opens a spool file for replay.
func Open(path string, opts ...wire.Option) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spool: %w", err)
	}
	return NewReader(f, opts...), nil
}

// Next returns the next spooled record in its recorded wire format, io.EOF
// at a clean end of the stream, or ErrTruncated when the stream ends inside
// the final frame (a torn write).
func (r *Reader) Next() (*pbio.Record, error) {
	rec, err := r.conn.ReadRecord()
	if isTornTail(err) {
		r.truncated = true
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return rec, err
}

// Replay is the live receive loop, wire.Conn.Serve, run over the spool: every
// remaining record is delivered through the morpher attached with
// wire.WithMorpher, on whichever lane its cached decision picks, and a
// record the morpher rejects is skipped and counted
// (Stats().RejectedDeliveries), as on a live connection. A torn final frame
// is a clean end of stream — every complete record was delivered — and is
// reported via Truncated.
func (r *Reader) Replay() error {
	err := r.conn.Serve()
	if isTornTail(err) {
		r.truncated = true
		return nil
	}
	return err
}

// isTornTail reports whether a replay error means the stream ended mid-frame.
// A short read can only happen at the end of the stream, so any EOF-flavored
// frame error — EOF after the frame-type byte, mid-length-varint, or
// mid-body — identifies a torn final frame. Frame errors that are not
// EOF-rooted (bad varints with trailing data, size-limit violations,
// malformed bodies) stay what they are: corruption.
func isTornTail(err error) bool {
	if !errors.Is(err, wire.ErrBadFrame) {
		return false
	}
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}

// Truncated reports whether Next (or Replay) hit a torn final frame.
func (r *Reader) Truncated() bool { return r.truncated }

// Stats returns the replay connection's frame counters.
func (r *Reader) Stats() wire.Stats { return r.conn.Stats() }

// Close closes the underlying reader if it is an io.Closer.
func (r *Reader) Close() error { return r.conn.Close() }
