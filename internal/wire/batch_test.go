package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pbio"
	"repro/internal/trace"
)

// countingConn wraps bufferedConn counting Write *calls*, each one syscall
// on a socket: a write call hands the stream one Write per 64 KiB
// (maxWriteBuf) of frames it assembled, so a batch smaller than that is
// exactly one, which is what the batch API exists to coalesce. seen, when
// set, observes each Write's bytes before they pass on.
type countingConn struct {
	*bufferedConn
	writes atomic.Int64
	seen   func(b []byte)
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	if c.seen != nil {
		c.seen(b)
	}
	return c.bufferedConn.Write(b)
}

func batchPair(t *testing.T) (tx *Conn, txc *countingConn, rx *Conn) {
	t.Helper()
	fwd, back := newBufferPipe(), newBufferPipe()
	txc = &countingConn{bufferedConn: &bufferedConn{r: back, w: fwd}}
	rxc := &bufferedConn{r: fwd, w: back}
	tx, rx = NewConn(txc), NewConn(rxc)
	t.Cleanup(func() {
		_ = tx.Close()
		_ = rx.Close()
	})
	return tx, txc, rx
}

func encodeSeq(t *testing.T, f *pbio.Format, i int64) []byte {
	t.Helper()
	return pbio.EncodeRecord(pbio.NewRecord(f).MustSet("seq", pbio.Int(i)))
}

// TestWriteEncodedBatchOneFlush: N batched frames reach the peer intact and
// in order, the format frame goes out exactly once, and the whole batch —
// far below the 64 KiB at which a write call splits — costs a single
// underlying write.
func TestWriteEncodedBatchOneFlush(t *testing.T) {
	f := fmtOrDie(t, "BatchSeq", []pbio.Field{
		{Name: "seq", Kind: pbio.Integer, Size: 8},
	})
	tx, txc, rx := batchPair(t)

	const n = 16
	batch := make([]BatchFrame, n)
	for i := range batch {
		batch[i] = BatchFrame{Data: encodeSeq(t, f, int64(i)), Format: f}
	}
	if err := tx.WriteEncodedBatchCtx(batch); err != nil {
		t.Fatalf("WriteEncodedBatchCtx: %v", err)
	}
	if w := txc.writes.Load(); w != 1 {
		t.Errorf("batch of %d frames took %d underlying writes, want 1", n, w)
	}
	if got := tx.Stats().FormatFramesSent; got != 1 {
		t.Errorf("format frames sent = %d, want 1", got)
	}
	for i := 0; i < n; i++ {
		rec, err := rx.ReadRecord()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		v, _ := rec.Get("seq")
		if v.Int64() != int64(i) {
			t.Fatalf("frame %d carried seq %d, want in-order delivery", i, v.Int64())
		}
	}
}

// TestWriteEncodedBatchMixedFormats: a batch spanning two formats announces
// each format once, before its first data frame.
func TestWriteEncodedBatchMixedFormats(t *testing.T) {
	f1 := fmtOrDie(t, "BatchA", []pbio.Field{{Name: "seq", Kind: pbio.Integer, Size: 8}})
	f2 := fmtOrDie(t, "BatchB", []pbio.Field{{Name: "seq", Kind: pbio.Integer, Size: 4}})
	tx, txc, rx := batchPair(t)

	batch := []BatchFrame{
		{Data: encodeSeq(t, f1, 1), Format: f1},
		{Data: encodeSeq(t, f2, 2), Format: f2},
		{Data: encodeSeq(t, f1, 3), Format: f1},
		{Data: encodeSeq(t, f2, 4), Format: f2},
	}
	if err := tx.WriteEncodedBatchCtx(batch); err != nil {
		t.Fatalf("WriteEncodedBatchCtx: %v", err)
	}
	if w := txc.writes.Load(); w != 1 {
		t.Errorf("mixed-format batch took %d underlying writes, want 1", w)
	}
	if got := tx.Stats().FormatFramesSent; got != 2 {
		t.Errorf("format frames sent = %d, want 2 (one per format)", got)
	}
	wantNames := []string{"BatchA", "BatchB", "BatchA", "BatchB"}
	for i, name := range wantNames {
		rec, err := rx.ReadRecord()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if rec.Format().Name() != name {
			t.Fatalf("frame %d format %q, want %q", i, rec.Format().Name(), name)
		}
	}
}

// TestWriteEncodedBatchFingerprintMismatch: a frame whose bytes don't carry
// its claimed format's fingerprint stops the batch with ErrFingerprint and
// doesn't poison the connection for frames already written.
func TestWriteEncodedBatchFingerprintMismatch(t *testing.T) {
	f1 := fmtOrDie(t, "BatchGood", []pbio.Field{{Name: "seq", Kind: pbio.Integer, Size: 8}})
	f2 := fmtOrDie(t, "BatchBad", []pbio.Field{{Name: "seq", Kind: pbio.Integer, Size: 4}})
	tx, _, rx := batchPair(t)

	batch := []BatchFrame{
		{Data: encodeSeq(t, f1, 1), Format: f1},
		{Data: encodeSeq(t, f1, 2), Format: f2}, // bytes are f1, claimed f2
	}
	err := tx.WriteEncodedBatchCtx(batch)
	if !errors.Is(err, pbio.ErrFingerprint) {
		t.Fatalf("err = %v, want ErrFingerprint", err)
	}
	// The frame written before the bad one was flushed best-effort.
	rec, err := rx.ReadRecord()
	if err != nil {
		t.Fatalf("read surviving frame: %v", err)
	}
	if v, _ := rec.Get("seq"); v.Int64() != 1 {
		t.Fatalf("surviving frame seq = %d, want 1", v.Int64())
	}
}

// TestWriteEncodedBatchTraceContexts: each sampled frame in a batch gets its
// own trace announcement, relayed to the peer in order.
func TestWriteEncodedBatchTraceContexts(t *testing.T) {
	f := fmtOrDie(t, "BatchTraced", []pbio.Field{{Name: "seq", Kind: pbio.Integer, Size: 8}})
	fwd, back := newBufferPipe(), newBufferPipe()
	txc := &bufferedConn{r: back, w: fwd}
	rxc := &bufferedConn{r: fwd, w: back}
	tx, rx := NewConn(txc), NewConn(rxc)
	t.Cleanup(func() { _ = tx.Close(); _ = rx.Close() })

	tracer := trace.New(trace.Config{Capacity: 16, SampleEvery: 1})
	root1 := tracer.StartTrace(trace.StagePublish)
	root2 := tracer.StartTrace(trace.StagePublish)
	ctx1, ctx2 := root1.Context(), root2.Context()
	defer root1.End()
	defer root2.End()
	batch := []BatchFrame{
		{Data: encodeSeq(t, f, 1), Format: f, Ctx: ctx1},
		{Data: encodeSeq(t, f, 2), Format: f}, // unsampled
		{Data: encodeSeq(t, f, 3), Format: f, Ctx: ctx2},
	}
	if err := tx.WriteEncodedBatchCtx(batch); err != nil {
		t.Fatalf("WriteEncodedBatchCtx: %v", err)
	}
	wantCtx := []trace.Context{ctx1, {}, ctx2}
	for i, want := range wantCtx {
		if _, err := rx.ReadRecord(); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		got := rx.TraceContext()
		if got.Trace != want.Trace || got.Sampled != want.Sampled {
			t.Fatalf("frame %d trace ctx = %+v, want %+v", i, got, want)
		}
	}
	if got := tx.Stats().TraceFramesSent; got != 2 {
		t.Errorf("trace frames sent = %d, want 2", got)
	}
}

// TestWriteEncodedBatchEmpty: an empty batch is a no-op, not an error or a
// spurious flush.
func TestWriteEncodedBatchEmpty(t *testing.T) {
	tx, txc, _ := batchPair(t)
	if err := tx.WriteEncodedBatchCtx(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if w := txc.writes.Load(); w != 0 {
		t.Errorf("empty batch performed %d writes, want 0", w)
	}
}

// TestWriteEncodedBatchInterleavesWithSingles: batch and single writes share
// the same lock and format cache — a format announced by a batch is not
// re-announced by a later single write, and vice versa.
func TestWriteEncodedBatchInterleavesWithSingles(t *testing.T) {
	f := fmtOrDie(t, "BatchShared", []pbio.Field{{Name: "seq", Kind: pbio.Integer, Size: 8}})
	tx, _, rx := batchPair(t)

	if err := tx.WriteEncodedBatchCtx([]BatchFrame{{Data: encodeSeq(t, f, 1), Format: f}}); err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteEncoded(f, encodeSeq(t, f, 2)); err != nil {
		t.Fatal(err)
	}
	if got := tx.Stats().FormatFramesSent; got != 1 {
		t.Errorf("format frames sent = %d, want 1 across batch+single", got)
	}
	for i := int64(1); i <= 2; i++ {
		rec, err := rx.ReadRecord()
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := rec.Get("seq"); v.Int64() != i {
			t.Fatalf("seq = %d, want %d", v.Int64(), i)
		}
	}
}

var _ net.Conn = (*countingConn)(nil)
var _ = time.Time{}

// TestWriteEncodedBatchSingleFrame: the degenerate batch — exactly one frame
// — behaves like the single-write path (one flush, one format announcement)
// while staying on the batch API.
func TestWriteEncodedBatchSingleFrame(t *testing.T) {
	f := fmtOrDie(t, "BatchSingle", []pbio.Field{{Name: "seq", Kind: pbio.Integer, Size: 8}})
	tx, txc, rx := batchPair(t)

	if err := tx.WriteEncodedBatchCtx([]BatchFrame{{Data: encodeSeq(t, f, 42), Format: f}}); err != nil {
		t.Fatalf("single-frame batch: %v", err)
	}
	if w := txc.writes.Load(); w != 1 {
		t.Errorf("single-frame batch took %d underlying writes, want 1", w)
	}
	if got := tx.Stats().FormatFramesSent; got != 1 {
		t.Errorf("format frames sent = %d, want 1", got)
	}
	rec, err := rx.ReadRecord()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if v, _ := rec.Get("seq"); v.Int64() != 42 {
		t.Fatalf("seq = %d, want 42", v.Int64())
	}
}

// TestWriteEncodedBatchMidOnlyContext: when only a mid-batch frame carries a
// sampled context, the trace announcement lands exactly between its
// neighbors — the frames before and after read back with zero contexts, and
// only one trace frame crosses the wire.
func TestWriteEncodedBatchMidOnlyContext(t *testing.T) {
	f := fmtOrDie(t, "BatchMidCtx", []pbio.Field{{Name: "seq", Kind: pbio.Integer, Size: 8}})
	fwd, back := newBufferPipe(), newBufferPipe()
	txc := &bufferedConn{r: back, w: fwd}
	rxc := &bufferedConn{r: fwd, w: back}
	tx, rx := NewConn(txc), NewConn(rxc)
	t.Cleanup(func() { _ = tx.Close(); _ = rx.Close() })

	tracer := trace.New(trace.Config{Capacity: 16, SampleEvery: 1})
	root := tracer.StartTrace(trace.StagePublish)
	ctx := root.Context()
	defer root.End()

	batch := []BatchFrame{
		{Data: encodeSeq(t, f, 1), Format: f},
		{Data: encodeSeq(t, f, 2), Format: f, Ctx: ctx},
		{Data: encodeSeq(t, f, 3), Format: f},
	}
	if err := tx.WriteEncodedBatchCtx(batch); err != nil {
		t.Fatalf("WriteEncodedBatchCtx: %v", err)
	}
	wantCtx := []trace.Context{{}, ctx, {}}
	for i, want := range wantCtx {
		rec, err := rx.ReadRecord()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if v, _ := rec.Get("seq"); v.Int64() != int64(i+1) {
			t.Fatalf("frame %d seq = %d, want %d", i, v.Int64(), i+1)
		}
		got := rx.TraceContext()
		if got.Trace != want.Trace || got.Sampled != want.Sampled {
			t.Fatalf("frame %d trace ctx = %+v, want %+v", i, got, want)
		}
	}
	if got := tx.Stats().TraceFramesSent; got != 1 {
		t.Errorf("trace frames sent = %d, want 1", got)
	}
}

// bulkFormat carries one string, so a frame can be any size from the bare
// 8-byte envelope (plus the string's length byte) up.
func bulkFormat(t *testing.T) *pbio.Format {
	t.Helper()
	return fmtOrDie(t, "Bulk", []pbio.Field{{Name: "blob", Kind: pbio.String}})
}

func encodeBulk(f *pbio.Format, n int, fill byte) []byte {
	return pbio.EncodeRecord(pbio.NewRecord(f).MustSet("blob", pbio.Str(strings.Repeat(string(fill), n))))
}

// TestWriteEncodedBatchRealSizes: a sink backlog the size roster_morph's
// fan-out flushes — 125 frames of 1,076 B — reaches the stream in at most 3
// Writes, one per 64 KiB, not one per 4 KiB.
func TestWriteEncodedBatchRealSizes(t *testing.T) {
	f := bulkFormat(t)
	data := encodeBulk(f, 1076-pbio.EnvelopeSize-2, 'r')
	if len(data) != 1076 {
		t.Fatalf("frame is %d B, want 1076", len(data))
	}
	tx, txc, rx := batchPair(t)
	batch := make([]BatchFrame, 125)
	for i := range batch {
		batch[i] = BatchFrame{Data: data, Format: f}
	}
	if err := tx.WriteEncodedBatchCtx(batch); err != nil {
		t.Fatal(err)
	}
	if w := txc.writes.Load(); w > 3 {
		t.Errorf("125 frames of 1,076 B took %d Writes, want at most 3", w)
	}
	for i := range batch {
		body, _, err := rx.ReadEncoded()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(body, data) {
			t.Fatalf("frame %d differs", i)
		}
	}
}

// TestWriteLargeFrameUncopied: a frame larger than the write buffer reaches
// the stream from the caller's own slice, in one Write of exactly its body,
// and the peer reads it intact.
func TestWriteLargeFrameUncopied(t *testing.T) {
	f := bulkFormat(t)
	data := encodeBulk(f, 3*maxWriteBuf/2, 'L')
	tx, txc, rx := batchPair(t)
	var direct int
	txc.seen = func(b []byte) {
		if len(b) == len(data) && &b[0] == &data[0] {
			direct++
		}
	}
	if err := tx.WriteEncoded(f, data); err != nil {
		t.Fatal(err)
	}
	if direct != 1 {
		t.Errorf("the %d B body reached the stream from the caller's slice %d times, want 1", len(data), direct)
	}
	if w := txc.writes.Load(); w != 2 {
		t.Errorf("took %d Writes, want 2 (format frame and header, then the body)", w)
	}
	body, _, err := rx.ReadEncoded()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, data) {
		t.Fatal("large frame read back differs")
	}
}

// TestQuickWriteBatches: seeded random batches of frames from the empty
// payload to 3× the write buffer, some with sampled trace contexts. Each
// batch's Writes hold exactly the frames in order — a format frame ahead of
// the first data frame, one trace frame ahead of each sampled one — and read
// back identical. The stream is split only where the next frame would push
// the assembled bytes past maxWriteBuf, or around the body of a frame larger
// than that, which leaves from the caller's slice.
func TestQuickWriteBatches(t *testing.T) {
	f := bulkFormat(t)
	tracer := trace.New(trace.Config{Capacity: 16, SampleEvery: 1})
	size := func(rng *rand.Rand) int {
		switch rng.IntN(4) {
		case 0:
			return rng.IntN(64) // down to the empty payload
		case 1:
			return rng.IntN(2048)
		case 2:
			return maxWriteBuf - 64 + rng.IntN(128) // around the limit
		default:
			return rng.IntN(3 * maxWriteBuf)
		}
	}
	for seed := uint64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		tx, txc, rx := batchPair(t)
		type write struct {
			b      []byte
			direct bool // the Write was a frame's own body
		}
		var writes []write
		var batch []BatchFrame
		txc.seen = func(b []byte) {
			w := write{b: bytes.Clone(b)}
			for _, bf := range batch {
				w.direct = w.direct || (len(b) > 0 && len(b) == len(bf.Data) && &b[0] == &bf.Data[0])
			}
			writes = append(writes, w)
		}
		for call := 0; call < 4; call++ {
			batch = make([]BatchFrame, 1+rng.IntN(6))
			for i := range batch {
				batch[i] = BatchFrame{Data: encodeBulk(f, size(rng), byte('a'+i)), Format: f}
				if rng.IntN(3) == 0 {
					root := tracer.StartTrace(trace.StagePublish)
					batch[i].Ctx = root.Context()
					root.End()
				}
			}
			writes = writes[:0]
			if err := tx.WriteEncodedBatchCtx(batch); err != nil {
				t.Fatalf("seed %d call %d: %v", seed, call, err)
			}

			// The frames the stream must carry, in order.
			type frame struct {
				kind byte
				body []byte
			}
			var want []frame
			if call == 0 {
				want = append(want, frame{frameFormat, AppendFormatFrame(nil, f, nil)})
			}
			for _, bf := range batch {
				if bf.Ctx.Sampled {
					want = append(want, frame{frameTrace, bf.Ctx.AppendWire(nil)})
				}
				want = append(want, frame{frameData, bf.Data})
			}
			// Walk the Writes: every frame boundary and every split is
			// checked against the frame sequence.
			var stream []byte
			for _, w := range writes {
				stream = append(stream, w.b...)
			}
			off, wi, wend := 0, 0, len(writes[0].b) // wend: stream offset where Write wi ends
			for k, fr := range want {
				hdr := 1 + uvarintLen(uint64(len(fr.body)))
				if off+hdr+len(fr.body) > len(stream) || stream[off] != fr.kind ||
					!bytes.Equal(stream[off+hdr:off+hdr+len(fr.body)], fr.body) {
					t.Fatalf("seed %d call %d: frame %d (kind %d, %d B) not found intact at offset %d",
						seed, call, k, fr.kind, len(fr.body), off)
				}
				big := hdr+len(fr.body) > maxWriteBuf
				if off == wend && off > 0 && wi+1 < len(writes) {
					// A split just before this frame: the previous Write was a
					// body, or it could not have taken this frame (its header,
					// for a big frame) without passing the limit.
					piece := hdr + len(fr.body)
					if big {
						piece = hdr
					}
					if prev := writes[wi]; !prev.direct && len(prev.b)+piece <= maxWriteBuf {
						t.Fatalf("seed %d call %d: split before frame %d although %d+%d B fit in %d",
							seed, call, k, len(prev.b), piece, maxWriteBuf)
					}
					wi++
					wend += len(writes[wi].b)
				}
				if big {
					// The header closes a Write; the body is the next one.
					if off+hdr != wend || wi+1 >= len(writes) || !writes[wi+1].direct {
						t.Fatalf("seed %d call %d: frame %d (%d B) did not leave from the caller's slice",
							seed, call, k, len(fr.body))
					}
					wi++
					wend += len(writes[wi].b)
				} else if off+hdr+len(fr.body) > wend {
					t.Fatalf("seed %d call %d: frame %d (%d B) split across Writes", seed, call, k, len(fr.body))
				}
				off += hdr + len(fr.body)
			}
			if off != len(stream) || wi != len(writes)-1 {
				t.Fatalf("seed %d call %d: %d B in %d Writes, frames end at %d in Write %d",
					seed, call, len(stream), len(writes), off, wi)
			}
			for _, w := range writes {
				if !w.direct && len(w.b) > maxWriteBuf {
					t.Fatalf("seed %d call %d: a %d B Write of assembled frames", seed, call, len(w.b))
				}
			}

			for i, bf := range batch {
				body, _, err := rx.ReadEncoded()
				if err != nil {
					t.Fatalf("seed %d call %d: read %d: %v", seed, call, i, err)
				}
				if !bytes.Equal(body, bf.Data) {
					t.Fatalf("seed %d call %d: frame %d differs", seed, call, i)
				}
				if got := rx.TraceContext(); got != bf.Ctx {
					t.Fatalf("seed %d call %d: frame %d trace ctx %+v, want %+v", seed, call, i, got, bf.Ctx)
				}
			}
		}
	}
}

// faultyStream fails its Write call number fail, with an error or by
// writing half and reporting no error, and records every byte it accepts.
// Reads come from r.
type faultyStream struct {
	r     *bufferPipe
	fail  int
	short bool
	calls int
	got   []byte
}

var errStreamBroken = errors.New("stream broken")

func (s *faultyStream) Write(b []byte) (int, error) {
	s.calls++
	if s.calls == s.fail {
		if s.short {
			s.got = append(s.got, b[:len(b)/2]...)
			return len(b) / 2, nil
		}
		return 0, errStreamBroken
	}
	s.got = append(s.got, b...)
	return len(b), nil
}

func (s *faultyStream) Read(b []byte) (int, error) { return s.r.Read(b) }
func (s *faultyStream) Close() error               { return s.r.Close() }

// TestStickyWriteError: after a failed or short Write, every write call —
// WriteEncoded, WriteEncodedBatchCtx, WriteControl and the re-announce a
// peer's format request triggers — returns that first error and the stream
// receives no further byte, so a partial frame is never followed by another.
func TestStickyWriteError(t *testing.T) {
	f := fmtOrDie(t, "Sticky", []pbio.Field{{Name: "seq", Kind: pbio.Integer, Size: 8}})
	data := encodeSeq(t, f, 1)
	for _, tc := range []struct {
		name  string
		short bool
		want  error
	}{
		{"failed Write", false, errStreamBroken},
		{"short Write", true, io.ErrShortWrite},
	} {
		reqs := newBufferPipe()
		s := &faultyStream{r: reqs, fail: 2, short: tc.short}
		c := NewStreamConn(s)
		if err := c.WriteEncoded(f, data); err != nil {
			t.Fatalf("%s: first write: %v", tc.name, err)
		}
		if err := c.WriteEncoded(f, data); !errors.Is(err, tc.want) {
			t.Fatalf("%s: second write = %v, want %v", tc.name, err, tc.want)
		}
		calls, sent := s.calls, len(s.got)
		var req [8]byte
		binary.LittleEndian.PutUint64(req[:], f.Fingerprint())
		for _, w := range []struct {
			name string
			call func() error
		}{
			{"WriteEncoded", func() error { return c.WriteEncoded(f, data) }},
			{"WriteEncodedBatchCtx", func() error {
				return c.WriteEncodedBatchCtx([]BatchFrame{{Data: data, Format: f}, {Data: data, Format: f}})
			}},
			{"WriteControl", func() error { return c.WriteControl(MinCustomFrame, []byte("ping")) }},
			{"re-announce", func() error {
				// Closed behind the request: a re-announce that returned no
				// error reads on to io.EOF instead of waiting.
				_, _ = reqs.Write(append([]byte{frameFormatReq, 8}, req[:]...))
				_ = reqs.Close()
				_, _, err := c.ReadEncoded()
				return err
			}},
		} {
			if err := w.call(); !errors.Is(err, tc.want) {
				t.Errorf("%s: %s after the failure = %v, want %v", tc.name, w.name, err, tc.want)
			}
			if s.calls != calls || len(s.got) != sent {
				t.Errorf("%s: %s reached the stream: %d Writes, %d B (want %d, %d)",
					tc.name, w.name, s.calls, len(s.got), calls, sent)
			}
		}
	}
}

// stalledStream is a peer that stops reading: its first Write announces
// itself on entered, and every Write blocks until release is closed.
type stalledStream struct {
	entered chan<- struct{}
	release <-chan struct{}
	writes  int
}

func (s *stalledStream) Write(b []byte) (int, error) {
	if s.writes++; s.writes == 1 {
		s.entered <- struct{}{}
	}
	<-s.release
	return len(b), nil
}

func (s *stalledStream) Read([]byte) (int, error) { <-s.release; return 0, io.EOF }
func (s *stalledStream) Close() error             { return nil }

// TestStalledWritesBoundMemory: a connection blocked in a Write to a peer
// that reads nothing — a stalled sink's writer — pins its call's write
// buffer and nothing more: the heap grows by at most 64 KiB plus a little
// bookkeeping per stalled connection, however large the batch it was
// handed.
func TestStalledWritesBoundMemory(t *testing.T) {
	const conns = 32
	// Per connection: the 64 KiB buffer, plus 4 KiB for the goroutine and
	// the Write's arguments. A literal, not maxWriteBuf, so raising that
	// constant has to answer to this bound.
	const bound = 64<<10 + 4<<10
	f := bulkFormat(t)
	data := encodeBulk(f, 1076-pbio.EnvelopeSize-2, 'r')
	batch := make([]BatchFrame, 125) // 134 KB, more than two buffers' worth
	for i := range batch {
		batch[i] = BatchFrame{Data: data, Format: f}
	}
	entered := make(chan struct{}, conns)
	release := make(chan struct{})
	cs := make([]*Conn, conns)
	for i := range cs {
		cs[i] = NewStreamConn(&stalledStream{entered: entered, release: release})
		cs[i].sent[f.Fingerprint()] = true // data frames only
	}
	heap := func() int64 {
		// Two collections empty writeBufs, so every buffer the stalled
		// calls hold is one they allocated.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	errs := make(chan error, conns)
	for _, c := range cs {
		go func() { errs <- c.WriteEncodedBatchCtx(batch) }()
	}
	for range conns {
		<-entered
	}
	held := heap() - before
	close(release)
	for range conns {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	per := held / conns
	t.Logf("%d connections blocked in Write hold %d B of heap each", conns, per)
	if per > bound {
		t.Errorf("a connection blocked in Write holds %d B of heap, bound %d", per, bound)
	}
}
