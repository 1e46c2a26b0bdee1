package wire

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pbio"
)

func fmtOrDie(t *testing.T, name string, fields []pbio.Field) *pbio.Format {
	t.Helper()
	f, err := pbio.NewFormat(name, fields)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func pipePair(t *testing.T, opts ...Option) (tx, rx *Conn) {
	t.Helper()
	a, b := net.Pipe()
	tx = NewConn(a)
	rx = NewConn(b, opts...)
	t.Cleanup(func() {
		_ = tx.Close()
		_ = rx.Close()
	})
	return tx, rx
}

// bufferPipe is an unbounded, single-direction in-memory stream: writes
// never block, so per-message byte accounting is deterministic.
type bufferPipe struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
}

func newBufferPipe() *bufferPipe {
	p := &bufferPipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *bufferPipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, io.ErrClosedPipe
	}
	p.buf = append(p.buf, b...)
	p.cond.Broadcast()
	return len(b), nil
}

func (p *bufferPipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) == 0 && !p.closed {
		p.cond.Wait()
	}
	if len(p.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	return n, nil
}

func (p *bufferPipe) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.cond.Broadcast()
	return nil
}

// bufferedConn adapts a pair of bufferPipes to net.Conn.
type bufferedConn struct {
	r, w    *bufferPipe
	written atomic.Int64
}

func (c *bufferedConn) Read(b []byte) (int, error) { return c.r.Read(b) }

func (c *bufferedConn) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.written.Add(int64(n))
	return n, err
}

func (c *bufferedConn) Close() error                     { _ = c.r.Close(); return c.w.Close() }
func (c *bufferedConn) LocalAddr() net.Addr              { return &net.UnixAddr{Name: "mem"} }
func (c *bufferedConn) RemoteAddr() net.Addr             { return &net.UnixAddr{Name: "mem"} }
func (c *bufferedConn) SetDeadline(time.Time) error      { return nil }
func (c *bufferedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *bufferedConn) SetWriteDeadline(time.Time) error { return nil }

func TestRoundtripAndMetaDataOnce(t *testing.T) {
	f := fmtOrDie(t, "Load", []pbio.Field{
		{Name: "cpu", Kind: pbio.Integer, Size: 4},
		{Name: "mem", Kind: pbio.Integer, Size: 4},
	})
	fwd, back := newBufferPipe(), newBufferPipe()
	txc := &bufferedConn{r: back, w: fwd}
	rxc := &bufferedConn{r: fwd, w: back}
	tx, rx := NewConn(txc), NewConn(rxc)

	// Writes never block, so the counter after each write is exact.
	const n = 5
	var sizes []int64
	prev := int64(0)
	for i := 0; i < n; i++ {
		rec := pbio.NewRecord(f).MustSet("cpu", pbio.Int(int64(i)))
		if err := tx.WriteRecord(rec); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		cur := txc.written.Load()
		sizes = append(sizes, cur-prev)
		prev = cur
	}
	for i := 0; i < n; i++ {
		rec, err := rx.ReadRecord()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if v, _ := rec.Get("cpu"); v.Int64() != int64(i) {
			t.Errorf("message %d: cpu = %d", i, v.Int64())
		}
	}

	// First message carries the out-of-band format frame; subsequent ones
	// must cost only envelope + framing — under 30 bytes of overhead for an
	// 8-byte payload (the paper's "less than 30 bytes" claim).
	if sizes[0] <= sizes[1] {
		t.Errorf("first message (%d B) should exceed later ones (%d B): format frame missing?", sizes[0], sizes[1])
	}
	for i := 1; i < n; i++ {
		if sizes[i] != sizes[1] {
			t.Errorf("steady-state size varies: %v", sizes)
		}
		overhead := sizes[i] - 8 // two int32 fields
		if overhead >= 30 {
			t.Errorf("per-message overhead = %d bytes, want < 30", overhead)
		}
	}
}

// TestMorphingOverTheWire is the full §3 pipeline: a v2.0 sender declares
// the Figure 5 transform; an old v1.0-only receiver gets v1.0 records.
func TestMorphingOverTheWire(t *testing.T) {
	entry := fmtOrDie(t, "Member", []pbio.Field{
		{Name: "info", Kind: pbio.String},
		{Name: "ID", Kind: pbio.Integer, Size: 4},
	})
	memberV2 := fmtOrDie(t, "MemberV2", []pbio.Field{
		{Name: "info", Kind: pbio.String},
		{Name: "ID", Kind: pbio.Integer, Size: 4},
		{Name: "is_Source", Kind: pbio.Boolean},
		{Name: "is_Sink", Kind: pbio.Boolean},
	})
	v1 := fmtOrDie(t, "ChannelOpenResponse", []pbio.Field{
		{Name: "member_count", Kind: pbio.Integer, Size: 4},
		{Name: "member_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: entry}},
		{Name: "src_count", Kind: pbio.Integer, Size: 4},
		{Name: "src_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: entry}},
		{Name: "sink_count", Kind: pbio.Integer, Size: 4},
		{Name: "sink_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: entry}},
	})
	v2 := fmtOrDie(t, "ChannelOpenResponse", []pbio.Field{
		{Name: "member_count", Kind: pbio.Integer, Size: 4},
		{Name: "member_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: memberV2}},
	})
	const fig5 = `
int i, sink_count = 0, src_count = 0;
old.member_count = new.member_count;
for (i = 0; i < new.member_count; i++) {
    old.member_list[i].info = new.member_list[i].info;
    old.member_list[i].ID = new.member_list[i].ID;
    if (new.member_list[i].is_Source) {
        old.src_count = src_count + 1;
        old.src_list[src_count].info = new.member_list[i].info;
        old.src_list[src_count].ID = new.member_list[i].ID;
        src_count++;
    }
    if (new.member_list[i].is_Sink) {
        old.sink_count = sink_count + 1;
        old.sink_list[sink_count].info = new.member_list[i].info;
        old.sink_list[sink_count].ID = new.member_list[i].ID;
        sink_count++;
    }
}
`

	morpher := core.NewMorpher(core.DefaultThresholds)
	deliveries := make(chan *pbio.Record, 4)
	if err := morpher.RegisterFormat(v1, func(r *pbio.Record) error {
		deliveries <- r
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	tx, rx := pipePair(t, WithMorpher(morpher))
	tx.Declare(v2, &core.Xform{From: v2, To: v1, Code: fig5})

	serveErr := make(chan error, 1)
	go func() { serveErr <- rx.Serve() }()

	member := pbio.NewRecord(memberV2).
		MustSet("info", pbio.Str("tcp:a:1")).
		MustSet("ID", pbio.Int(9)).
		MustSet("is_Source", pbio.Bool(true))
	rec := pbio.NewRecord(v2).
		MustSet("member_count", pbio.Int(1)).
		MustSet("member_list", pbio.ListOf([]pbio.Value{pbio.RecordOf(member)}))
	if err := tx.WriteRecord(rec); err != nil {
		t.Fatal(err)
	}

	got := <-deliveries
	if !got.Format().SameStructure(v1) {
		t.Fatalf("delivered format %q, want v1 structure", got.Format().Name())
	}
	if v, _ := got.Get("src_count"); v.Int64() != 1 {
		t.Errorf("src_count = %d", v.Int64())
	}
	sl, _ := got.Get("src_list")
	if sl.Len() != 1 || sl.List()[0].Record().GetIndex(0).Strval() != "tcp:a:1" {
		t.Errorf("src_list = %v", sl)
	}

	if err := tx.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("Serve returned %v", err)
	}
}

func TestUnknownFormatRejected(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{{Name: "x", Kind: pbio.Integer}})
	a, b := net.Pipe()
	rx := NewConn(b)
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })

	// Hand-write a data frame without a preceding format frame.
	go func() {
		body := pbio.EncodeRecord(pbio.NewRecord(f))
		frame := append([]byte{frameData, byte(len(body))}, body...)
		_, _ = a.Write(frame)
	}()
	if _, err := rx.ReadRecord(); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("err = %v, want ErrUnknownFormat", err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	a, b := net.Pipe()
	rx := NewConn(b, WithMaxFrame(16))
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	go func() {
		_, _ = a.Write([]byte{frameData, 0xFF, 0x01}) // claims 255 bytes
	}()
	if _, err := rx.ReadRecord(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestBadFrameType(t *testing.T) {
	// Kind 0 is never assigned, so it is the stream-desync signal and stays
	// fatal; nonzero unknown kinds are skipped as future control frames
	// (see the corrupt-frame tests for the skip-and-count behavior).
	a, b := net.Pipe()
	rx := NewConn(b)
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	go func() { _, _ = a.Write([]byte{0x00, 0x01, 0x00}) }()
	if _, err := rx.ReadRecord(); !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame", err)
	}
}

func TestCleanEOF(t *testing.T) {
	a, b := net.Pipe()
	rx := NewConn(b)
	go func() { _ = a.Close() }()
	if _, err := rx.ReadRecord(); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("err = %v, want EOF-ish", err)
	}
}

func TestInvalidTransformRejectedAtMetaDataTime(t *testing.T) {
	from := fmtOrDie(t, "m", []pbio.Field{{Name: "x", Kind: pbio.Integer}})
	to := fmtOrDie(t, "m", []pbio.Field{{Name: "y", Kind: pbio.Integer}})

	morpher := core.NewMorpher(core.DefaultThresholds)
	if err := morpher.RegisterFormat(to, func(*pbio.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	tx, rx := pipePair(t, WithMorpher(morpher))
	tx.Declare(from, &core.Xform{From: from, To: to, Code: "old.zzz = 1;"})

	go func() { _ = tx.WriteRecord(pbio.NewRecord(from)) }()
	if _, err := rx.ReadRecord(); !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame for non-compiling transform", err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{{Name: "x", Kind: pbio.Integer}})
	tx, rx := pipePair(t)

	const writers, per = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec := pbio.NewRecord(f).MustSet("x", pbio.Int(1))
				if err := tx.WriteRecord(rec); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}()
	}
	total := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for total < writers*per {
			if _, err := rx.ReadRecord(); err != nil {
				t.Errorf("read: %v", err)
				return
			}
			total++
		}
	}()
	wg.Wait()
	<-done
	if total != writers*per {
		t.Errorf("received %d, want %d", total, writers*per)
	}
}

func TestOverTCP(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{{Name: "s", Kind: pbio.String}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })

	got := make(chan string, 1)
	go func() {
		nc, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		rx := NewConn(nc)
		rec, err := rx.ReadRecord()
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		v, _ := rec.Get("s")
		got <- v.Strval()
	}()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tx := NewConn(nc)
	if err := tx.WriteRecord(pbio.NewRecord(f).MustSet("s", pbio.Str("over tcp"))); err != nil {
		t.Fatal(err)
	}
	if s := <-got; s != "over tcp" {
		t.Errorf("got %q", s)
	}
	_ = tx.Close()
}

// TestParseFrameKind: ParseFrameKind inverts FrameKindName for every kind
// byte, named or not, and takes the spellings filters accept.
func TestParseFrameKind(t *testing.T) {
	for k := 0; k < 256; k++ {
		if got, err := ParseFrameKind(FrameKindName(byte(k))); err != nil || got != byte(k) {
			t.Errorf("ParseFrameKind(%q) = %d, %v; want %d", FrameKindName(byte(k)), got, err, k)
		}
	}
	for in, want := range map[string]byte{
		"DATA": KindData, "formatreq": KindFormatReq, "Format_Req": KindFormatReq,
		"registry": FrameRegistry, "capture": FrameCapture, "7": 7, "0": 0, "255": 255,
	} {
		if got, err := ParseFrameKind(in); err != nil || got != want {
			t.Errorf("ParseFrameKind(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "nosuch", "256", "-1", "kind_", "kind_x", "0x02", "data "} {
		if _, err := ParseFrameKind(bad); err == nil {
			t.Errorf("ParseFrameKind(%q) accepted garbage", bad)
		}
	}
}
