package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/pbio"
	"repro/internal/trace"
)

// readStream is a Stream that reads from r and discards what is written.
type readStream struct{ io.Reader }

func (readStream) Write(b []byte) (int, error) { return len(b), nil }
func (readStream) Close() error                { return nil }

// countingReader counts Read calls, each one syscall on a socket.
type countingReader struct {
	io.Reader
	reads int
}

func (r *countingReader) Read(b []byte) (int, error) {
	r.reads++
	return r.Reader.Read(b)
}

// cutReader hands its bytes out in pieces: each Read returns at most the
// next size cut gives, and at least one byte while any are left.
type cutReader struct {
	b   []byte
	cut func() int
}

func (r *cutReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b[:min(len(r.b), max(r.cut(), 1))])
	r.b = r.b[n:]
	return n, nil
}

// captureBatches writes each batch through one WriteEncodedBatchCtx call
// and returns the bytes that reached the stream: a format frame ahead of
// the first data frame, a trace frame ahead of each sampled one.
func captureBatches(t *testing.T, batches ...[]BatchFrame) []byte {
	t.Helper()
	pipe := newBufferPipe()
	tx := NewConn(&bufferedConn{r: newBufferPipe(), w: pipe})
	for _, b := range batches {
		if err := tx.WriteEncodedBatchCtx(b); err != nil {
			t.Fatal(err)
		}
	}
	_ = pipe.Close()
	stream, err := io.ReadAll(pipe)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// readBack reads len(want) data frames from rx, checks each body and trace
// context against want in order, and then expects a clean io.EOF.
func readBack(t *testing.T, name string, rx *Conn, want []BatchFrame) {
	t.Helper()
	for i, bf := range want {
		body, _, err := rx.ReadEncoded()
		if err != nil {
			t.Fatalf("%s: read %d of %d: %v", name, i, len(want), err)
		}
		if !bytes.Equal(body, bf.Data) {
			t.Fatalf("%s: frame %d (%d B) read back as %d B that differ", name, i, len(bf.Data), len(body))
		}
		if got := rx.TraceContext(); got != bf.Ctx {
			t.Fatalf("%s: frame %d trace ctx %+v, want %+v", name, i, got, bf.Ctx)
		}
	}
	if _, _, err := rx.ReadEncoded(); err != io.EOF {
		t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
	}
}

// TestReadEncodedRealSizes: the sink backlogs of roster_morph (125 frames of
// 1,076 B) and fanout_identity (250 frames of 105 B), written as one batch,
// reach the receiver in at most 4 and 2 Reads: one 4 KiB read, then 64 KiB
// reads while reads fill the buffer, not one Read per 4 KiB.
func TestReadEncodedRealSizes(t *testing.T) {
	f := bulkFormat(t)
	for _, tc := range []struct {
		frames, size, reads int
	}{
		{125, 1076, 4},
		{250, 105, 2},
	} {
		// The string's length varint takes two bytes from 128 on.
		n := tc.size - pbio.EnvelopeSize - 1
		n -= uvarintLen(uint64(n)) - 1
		data := encodeBulk(f, n, 'r')
		if len(data) != tc.size {
			t.Fatalf("frame is %d B, want %d", len(data), tc.size)
		}
		batch := make([]BatchFrame, tc.frames)
		for i := range batch {
			batch[i] = BatchFrame{Data: data, Format: f}
		}
		fwd, back := newBufferPipe(), newBufferPipe()
		tx := NewConn(&bufferedConn{r: back, w: fwd})
		rxs := &countingReader{Reader: fwd}
		rx := NewStreamConn(readStream{rxs})
		if err := tx.WriteEncodedBatchCtx(batch); err != nil {
			t.Fatal(err)
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
		t.Logf("%d frames of %d B: %d Reads", tc.frames, tc.size, rxs.reads)
		if rxs.reads > tc.reads {
			t.Errorf("%d frames of %d B took %d Reads, want at most %d", tc.frames, tc.size, rxs.reads, tc.reads)
		}
	}
}

// TestQuickReadSplits: seeded random batches — trace frames, bodies from
// empty to around 4 KiB (minReadBuf) and 64 KiB (maxReadBuf), and one
// larger than the read buffer — read back identical and in order however
// the stream is cut: half of each Read, data arriving with io.EOF, random
// cuts, all of it at once, and (on two seeds) a byte per Read. The byte
// counter counts every byte exactly once.
func TestQuickReadSplits(t *testing.T) {
	f := bulkFormat(t)
	tracer := trace.New(trace.Config{Capacity: 16, SampleEvery: 1})
	size := func(rng *rand.Rand) int {
		switch rng.IntN(4) {
		case 0:
			return rng.IntN(64)
		case 1:
			return minReadBuf - 64 + rng.IntN(128)
		case 2:
			return maxReadBuf - 64 + rng.IntN(128)
		default:
			return rng.IntN(2 * minReadBuf)
		}
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		var batches [][]BatchFrame
		var want []BatchFrame
		for call := 0; call < 3; call++ {
			batch := make([]BatchFrame, 1+rng.IntN(6))
			for i := range batch {
				batch[i] = BatchFrame{Data: encodeBulk(f, size(rng), byte('a'+i)), Format: f}
				if rng.IntN(3) == 0 {
					root := tracer.StartTrace(trace.StagePublish)
					batch[i].Ctx = root.Context()
					root.End()
				}
			}
			batches = append(batches, batch)
			want = append(want, batch...)
		}
		big := rng.IntN(len(batches))
		batches[big] = append(batches[big], BatchFrame{Data: encodeBulk(f, maxReadBuf+rng.IntN(minReadBuf), 'Z'), Format: f})
		want = want[:0]
		for _, b := range batches {
			want = append(want, b...)
		}
		stream := captureBatches(t, batches...)

		cutRng := rand.New(rand.NewPCG(seed, 1))
		for _, rd := range []struct {
			name string
			r    io.Reader
		}{
			{"half", iotest.HalfReader(bytes.NewReader(stream))},
			{"data with EOF", iotest.DataErrReader(bytes.NewReader(stream))},
			{"random cuts", &cutReader{b: stream, cut: func() int {
				if cutRng.IntN(2) == 0 {
					return 1 + cutRng.IntN(16)
				}
				return 1 + cutRng.IntN(2*maxReadBuf)
			}}},
			{"whole", bytes.NewReader(stream)},
			{"one byte", iotest.OneByteReader(bytes.NewReader(stream))},
		} {
			if rd.name == "one byte" && seed > 2 {
				break // a Read per byte costs seconds under -race; two streams hold every frame kind
			}
			name := fmt.Sprintf("seed %d, %s", seed, rd.name)
			rx := NewStreamConn(readStream{rd.r})
			readBack(t, name, rx, want)
			if got := rx.Stats().BytesRecv; got != uint64(len(stream)) {
				t.Fatalf("%s: BytesRecv = %d, stream is %d B", name, got, len(stream))
			}
		}
	}
}

// TestSmallFramePingPong: frames of 2 to 10 bytes — shorter than the
// longest possible header — cross an unbuffered net.Pipe one at a time and
// come back. A reader that waited for a full-length header would wait for
// bytes the peer never sends; the deadline turns that hang into a failure.
func TestSmallFramePingPong(t *testing.T) {
	a, b := net.Pipe()
	deadline := time.Now().Add(10 * time.Second)
	_ = a.SetDeadline(deadline)
	_ = b.SetDeadline(deadline)
	ca, cb := NewConn(a), NewConn(b)
	defer cb.Close()
	echoed := make(chan error, 1)
	go func() {
		for {
			typ, body, err := cb.readFrame()
			if err != nil {
				echoed <- err
				return
			}
			if err := cb.WriteControl(typ, body); err != nil {
				echoed <- err
				return
			}
		}
	}()
	for n := 0; n <= 8; n++ {
		body := bytes.Repeat([]byte{byte('a' + n)}, n)
		if err := ca.WriteControl(MinCustomFrame+byte(n), body); err != nil {
			t.Fatalf("ping of %d B: %v", n, err)
		}
		typ, got, err := ca.readFrame()
		if err != nil {
			t.Fatalf("pong of %d B: %v", n, err)
		}
		if typ != MinCustomFrame+byte(n) || !bytes.Equal(got, body) {
			t.Fatalf("pong of %d B came back as kind %d, %q", n, typ, got)
		}
	}
	_ = ca.Close()
	if err := <-echoed; err != io.EOF {
		t.Fatalf("echo side ended with %v, want io.EOF", err)
	}
}

// TestReadErrorContracts: the errors spool's torn-tail detection relies on.
// A stream that ends between frames reads io.EOF, untouched; one that ends
// anywhere inside a frame — its type byte, length varint or body, small or
// larger than the read buffer — reads ErrBadFrame wrapping
// io.ErrUnexpectedEOF. A stream error that came with data is not lost. A
// length over the limit reads ErrFrameTooLarge before anything is allocated
// for the body.
func TestReadErrorContracts(t *testing.T) {
	var stream []byte
	ends := []int{0} // frame boundaries
	for i, n := range []int{3, 200, minReadBuf, maxReadBuf - 8, maxReadBuf + 100} {
		stream = append(stream, rawFrame(MinCustomFrame, bytes.Repeat([]byte{byte('a' + i)}, n))...)
		ends = append(ends, len(stream))
	}
	cutRng := rand.New(rand.NewPCG(1, 2))
	for k := 1; k < len(ends); k++ {
		start, end := ends[k-1], ends[k]
		cuts := []int{start, start + 1, start + 2, start + 3, end - 1, end, (start + end) / 2}
		for _, cut := range cuts {
			for _, whole := range []bool{true, false} {
				r := io.Reader(bytes.NewReader(stream[:cut]))
				if !whole {
					r = &cutReader{b: stream[:cut], cut: func() int { return 1 + cutRng.IntN(minReadBuf) }}
				}
				rx := NewStreamConn(readStream{r})
				var err error
				for frames := 0; err == nil; frames++ {
					_, _, err = rx.readFrame()
					if err == nil && frames >= k {
						t.Fatalf("cut at %d of frame %d: read %d frames", cut-start, k, frames+1)
					}
				}
				if cut == start || cut == end {
					if err != io.EOF {
						t.Errorf("cut between frames at %d: %v, want io.EOF", cut, err)
					}
				} else if !errors.Is(err, ErrBadFrame) || !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Errorf("cut at byte %d of frame %d (%d B): %v, want ErrBadFrame wrapping io.ErrUnexpectedEOF",
						cut-start, k, end-start, err)
				}
			}
		}
	}

	// A stream error that arrives with data is returned once that data is
	// used up — between frames untouched, inside one wrapped — even when the
	// stream would go on to deliver more.
	two := append(rawFrame(MinCustomFrame, []byte("one")), rawFrame(MinCustomFrame, []byte("two"))...)
	for _, k := range []int{5, 7} {
		rx := NewStreamConn(readStream{io.MultiReader(&errWithData{b: two[:k], err: errStreamBroken}, bytes.NewReader(two[k:]))})
		_, body, err := rx.readFrame()
		if err != nil || string(body) != "one" {
			t.Fatalf("error after %d B: first frame %q, %v", k, body, err)
		}
		_, _, err = rx.readFrame()
		if k == 5 && err != errStreamBroken || k == 7 && !(errors.Is(err, ErrBadFrame) && errors.Is(err, errStreamBroken)) {
			t.Errorf("error after %d B: second read %v, want %v", k, err, errStreamBroken)
		}
	}

	// A frame claiming 32 MiB behind a small one, on a connection limited
	// to 1 MiB.
	huge := append(rawFrame(MinCustomFrame, []byte("warm")), MinCustomFrame)
	huge = appendUvarint(huge, 32<<20)
	rx := NewStreamConn(readStream{bytes.NewReader(append(huge, "body"...))}, WithMaxFrame(1<<20))
	if _, _, err := rx.readFrame(); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	_, _, err := rx.readFrame()
	runtime.ReadMemStats(&ms)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("32 MiB frame, 1 MiB limit: %v, want ErrFrameTooLarge", err)
	}
	if got := ms.TotalAlloc - before; got > 16<<10 {
		t.Errorf("refusing a 32 MiB frame allocated %d B", got)
	}
}

// errWithData returns all of b with err in one Read, then io.EOF.
type errWithData struct {
	b   []byte
	err error
}

func (r *errWithData) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, r.err
}

// idleStream is a peer that sends r and then nothing: the first Read after
// r is drained announces itself on parked and blocks until release is
// closed.
type idleStream struct {
	r       *bytes.Reader
	parked  chan<- struct{}
	release <-chan struct{}
}

func (s *idleStream) Read(b []byte) (int, error) {
	if s.r.Len() > 0 {
		return s.r.Read(b)
	}
	s.parked <- struct{}{}
	<-s.release
	return 0, io.EOF
}

func (*idleStream) Write(b []byte) (int, error) { return len(b), nil }
func (*idleStream) Close() error                { return nil }

// TestIdleReadsBoundMemory: a connection that read a burst larger than two
// 64 KiB buffers and now waits in a Read for a peer that sends nothing holds
// its 4 KiB read buffer and nothing more — the 4 KiB a bufio.Reader held —
// whatever buffer the burst was read through.
func TestIdleReadsBoundMemory(t *testing.T) {
	const conns = 32
	// Per connection: the 4 KiB buffer, plus 1 KiB for the reading
	// goroutine and bookkeeping. A literal, not minReadBuf, so raising that
	// constant has to answer to this bound.
	const bound = 4<<10 + 1<<10
	f := bulkFormat(t)
	data := encodeBulk(f, 1076-pbio.EnvelopeSize-2, 'r')
	batch := make([]BatchFrame, 125) // 134 KB, more than two buffers' worth
	for i := range batch {
		batch[i] = BatchFrame{Data: data, Format: f}
	}
	pipe := newBufferPipe()
	tx := NewConn(&bufferedConn{r: newBufferPipe(), w: pipe})
	tx.sent[f.Fingerprint()] = true // data frames only
	if err := tx.WriteEncodedBatchCtx(batch); err != nil {
		t.Fatal(err)
	}
	_ = pipe.Close()
	stream, err := io.ReadAll(pipe)
	if err != nil {
		t.Fatal(err)
	}

	parked := make(chan struct{}, conns)
	release := make(chan struct{})
	cs := make([]*Conn, conns)
	for i := range cs {
		cs[i] = NewStreamConn(&idleStream{r: bytes.NewReader(stream), parked: parked, release: release})
		cs[i].recvFormats[f.Fingerprint()] = f
	}
	heap := func() int64 {
		// Two collections empty readBufs, so every buffer the idle
		// connections hold is one they keep.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	errs := make(chan error, conns)
	for _, c := range cs {
		go func() {
			for range batch {
				if _, _, err := c.ReadEncoded(); err != nil {
					errs <- err
					return
				}
			}
			_, _, err := c.ReadEncoded()
			if err == io.EOF {
				err = nil
			}
			errs <- err
		}()
	}
	for range conns {
		select {
		case <-parked:
		case err := <-errs:
			t.Fatalf("a connection stopped before parking: %v", err)
		}
	}
	held := heap() - before
	for i, c := range cs {
		if c.rpool != nil {
			t.Errorf("connection %d waits in Read holding a %d B pooled buffer", i, len(*c.rpool))
		}
	}
	close(release)
	for range conns {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	per := held / conns
	t.Logf("%d connections waiting in Read after a 134 KB burst hold %d B of heap each", conns, per)
	if per > bound {
		t.Errorf("a connection waiting in Read holds %d B of heap, bound %d", per, bound)
	}
}

// TestForgedLengthCostsWhatArrived: a peer that sends a header claiming a
// 60 MiB frame, then 1 KiB of its body, then nothing, costs the receiver
// waiting for the rest about what it sent, not what it claimed: a body too
// large for the read buffer grows as its bytes arrive.
func TestForgedLengthCostsWhatArrived(t *testing.T) {
	const claimed = 60 << 20
	// The 4 KiB read buffer and a body's first 128 KiB, with room to spare;
	// a body allocated at its claimed size is 60 times this.
	const bound = 1 << 20
	stream := binary.AppendUvarint([]byte{frameData}, claimed)
	stream = append(stream, make([]byte, 1<<10)...)
	parked := make(chan struct{}, 1)
	release := make(chan struct{})
	c := NewStreamConn(&idleStream{r: bytes.NewReader(stream), parked: parked, release: release})
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	errs := make(chan error, 1)
	go func() {
		_, _, err := c.ReadEncoded()
		errs <- err
	}()
	select {
	case <-parked:
	case err := <-errs:
		t.Fatalf("the read returned before the peer stalled: %v", err)
	}
	grew := heap() - before
	close(release)
	if err := <-errs; !errors.Is(err, ErrBadFrame) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a frame torn after 1 KiB read as %v, want ErrBadFrame wrapping io.ErrUnexpectedEOF", err)
	}
	t.Logf("a header claiming %d B, then 1 KiB of body, grew the waiting receiver's heap by %d B", claimed, grew)
	if grew > bound {
		t.Errorf("a forged %d B length grew the receiver's heap by %d B, bound %d", claimed, grew, bound)
	}
}

// TestLargeFramesReadBack: bodies from just over the read buffer to many
// times it — read while their memory grows — come back identical, as do the
// small frames around them, however the stream is cut.
func TestLargeFramesReadBack(t *testing.T) {
	f := bulkFormat(t)
	var want []BatchFrame
	for i, n := range []int{maxReadBuf, 2*maxReadBuf - 20, 2*maxReadBuf + 1, 5*maxReadBuf + 3} {
		want = append(want,
			BatchFrame{Data: encodeBulk(f, n, byte('A'+i)), Format: f},
			BatchFrame{Data: encodeBulk(f, 16, byte('a'+i)), Format: f})
	}
	stream := captureBatches(t, want)
	rng := rand.New(rand.NewPCG(1, 2))
	for _, rd := range []struct {
		name string
		r    io.Reader
	}{
		{"half", iotest.HalfReader(bytes.NewReader(stream))},
		{"data with EOF", iotest.DataErrReader(bytes.NewReader(stream))},
		{"random cuts", &cutReader{b: stream, cut: func() int { return 1 + rng.IntN(3*maxReadBuf) }}},
		{"whole", bytes.NewReader(stream)},
	} {
		rx := NewStreamConn(readStream{rd.r})
		readBack(t, rd.name, rx, want)
		if _, _, err := rx.ReadEncoded(); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", rd.name, err)
		}
	}
}
