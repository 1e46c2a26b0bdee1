package echo

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fanout"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/wire"
)

// seqSink opens a sink on channel that records every seqFormat event's seq
// in arrival order and closes done once want events have arrived.
type seqSink struct {
	sub  *Subscriber
	mu   sync.Mutex
	seqs []uint64
	want int
	done chan struct{}
}

func openSeqSink(t *testing.T, addr, channel string, want int) *seqSink {
	t.Helper()
	sub, err := Open(addr, channel, Options{Sink: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sub.Close() })
	s := &seqSink{sub: sub, want: want, done: make(chan struct{})}
	if err := sub.Handle(seqFormat, func(r *pbio.Record) error {
		v, _ := r.Get("seq")
		s.mu.Lock()
		s.seqs = append(s.seqs, uint64(v.Int64()))
		if len(s.seqs) == s.want {
			close(s.done)
		}
		s.mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	go func() { _ = sub.Run() }()
	return s
}

// wait blocks until the sink has every event it wants and returns them.
func (s *seqSink) wait(t *testing.T) []uint64 {
	t.Helper()
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.mu.Lock()
		n := len(s.seqs)
		s.mu.Unlock()
		t.Fatalf("sink received %d of %d events", n, s.want)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.seqs...)
}

// burstQueue is the broker's per-sink queue in tests that publish a whole
// burst before the sink can drain it. They test the publisher's write path;
// a default-size DropNewest queue may rightly shed a burst that outruns its
// sink.
const burstQueue = 1 << 16

// TestPublishOrderConcurrent: several goroutines publishing at once through
// one subscriber lose nothing, and each goroutine's events arrive in the
// order it published them.
func TestPublishOrderConcurrent(t *testing.T) {
	_, _, addr := startFanoutServer(t, WithFanoutQueue(burstQueue, fanout.DropNewest))
	const writers, each = 4, 500
	sink := openSeqSink(t, addr, "order", writers*each)
	pub, err := Open(addr, "order", Options{Source: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	var wg sync.WaitGroup
	for w := uint64(0); w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < each; i++ {
				if err := pub.Publish(seqEvent(w<<32|i, 32)); err != nil {
					t.Errorf("writer %d publish %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	next := make([]uint64, writers)
	for _, seq := range sink.wait(t) {
		w, i := seq>>32, seq&(1<<32-1)
		if i != next[w] {
			t.Fatalf("writer %d: event %d arrived where %d was due", w, i, next[w])
		}
		next[w]++
	}
}

// TestCloseFlushesAccepted: Close right after a burst of Publish calls
// still delivers every event Publish accepted.
func TestCloseFlushesAccepted(t *testing.T) {
	_, _, addr := startFanoutServer(t, WithFanoutQueue(burstQueue, fanout.DropNewest))
	const events = 2000
	sink := openSeqSink(t, addr, "close", events)
	pub, err := Open(addr, "close", Options{Source: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < events; i++ {
		if err := pub.Publish(seqEvent(i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	for i, seq := range sink.wait(t) {
		if seq != uint64(i) {
			t.Fatalf("event %d carried seq %d", i, seq)
		}
	}
}

// stalledBroker answers one channel-open handshake and then never reads
// again, like a broker wedged behind a full disk. It returns its address.
func stalledBroker(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			_ = c.Close()
		}
	})
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, nc)
			mu.Unlock()
			c := wire.NewConn(nc)
			if _, err := c.ReadRecord(); err != nil {
				continue
			}
			_ = c.WriteRecord(ResponseV2Record(nil))
		}
	}()
	return ln.Addr().String()
}

// TestPublishBlocksOnStalledPeer: when the broker stops reading, Publish
// blocks once the socket and the 64 KiB buffer are full — it neither
// drops events nor buffers without bound — and Close still returns within
// its write deadline, failing the blocked Publish and reporting that
// accepted events were never sent.
func TestPublishBlocksOnStalledPeer(t *testing.T) {
	const timeout = 300 * time.Millisecond
	pub, err := Open(stalledBroker(t), "stall", Options{Source: true, HandshakeTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	published := make(chan error, 1)
	go func() {
		for {
			if err := pub.Publish(seqEvent(uint64(accepted.Load()), 4<<10)); err != nil {
				published <- err
				return
			}
			accepted.Add(1)
		}
	}()
	// Blocked means no progress for a while, with no error returned.
	deadline := time.Now().Add(10 * time.Second)
	for last := int64(-1); ; {
		time.Sleep(200 * time.Millisecond)
		select {
		case err := <-published:
			t.Fatalf("Publish failed after %d events instead of blocking: %v", accepted.Load(), err)
		default:
		}
		n := accepted.Load()
		if n == last {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Publish never blocked: %d events of 4 KiB accepted by a peer that reads nothing", n)
		}
		last = n
	}

	start := time.Now()
	if err := pub.Close(); err == nil {
		t.Error("Close returned nil with accepted events stuck behind a stalled peer")
	}
	if took := time.Since(start); took > timeout+2*time.Second {
		t.Errorf("Close took %v against a stalled peer, bound %v", took, timeout)
	}
	select {
	case err := <-published:
		if err == nil {
			t.Error("the blocked Publish returned nil after Close")
		}
	case <-time.After(5 * time.Second):
		t.Error("the blocked Publish did not return after Close")
	}
}

// TestCoalescerBoundsMemory: a writer facing a peer that reads nothing
// holds at most maxPending bytes plus the write that crossed the line, and
// once a burst has drained the coalescer keeps no buffer over idleKeep.
func TestCoalescerBoundsMemory(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dial := func() (*coalescer, net.Conn) {
		t.Helper()
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		peer, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		return newCoalescer(nc, 200*time.Millisecond), peer
	}
	chunk := make([]byte, 3<<10)

	// A peer that reads nothing: the writer blocks with the buffer bounded.
	c, peer := dial()
	var writes atomic.Int64
	go func() {
		for {
			if _, err := c.Write(chunk); err != nil {
				return
			}
			writes.Add(1)
		}
	}()
	for last := int64(-1); ; last = writes.Load() {
		time.Sleep(100 * time.Millisecond)
		if writes.Load() == last {
			break
		}
	}
	c.mu.Lock()
	held := len(c.pending)
	c.mu.Unlock()
	if held > maxPending+len(chunk) {
		t.Errorf("blocked coalescer holds %d bytes, bound %d", held, maxPending+len(chunk))
	}
	_ = c.Close()
	_ = peer.Close()

	// A reading peer: after a burst the buffers shrink back.
	c, peer = dial()
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := c.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		idle, pc, sc := !c.running, cap(c.pending), cap(c.spare)
		c.mu.Unlock()
		if idle {
			if pc > idleKeep || sc > idleKeep {
				t.Errorf("idle coalescer keeps buffers of %d and %d bytes, bound %d", pc, sc, idleKeep)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coalescer never went idle")
		}
		time.Sleep(time.Millisecond)
	}
	_ = c.Close()
	_ = peer.Close()
}

// TestPublishFailsAfterBrokerCloses: once the broker has closed the
// connection, Publish reports it. The first writes after the close may
// still land in the socket buffer; the error is sticky from the first
// failed write on.
func TestPublishFailsAfterBrokerCloses(t *testing.T) {
	srv, addr := startServer(t)
	pub, err := Open(addr, "gone", Options{Source: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := uint64(0); ; i++ {
		err := pub.Publish(seqEvent(i, 64))
		if err != nil {
			if again := pub.Publish(seqEvent(i+1, 64)); again == nil {
				t.Errorf("write error %v was not sticky", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("Publish still returns nil %d events after the broker closed", i)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseLeavesNoGoroutine: a publisher that bursts and closes leaves no
// goroutine behind, its flusher included.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	_, addr := startServer(t)
	before := runtime.NumGoroutine()
	pub, err := Open(addr, "leak", Options{Source: true})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan struct{})
	go func() { _ = pub.Run(); close(ran) }()
	for i := uint64(0); i < 1000; i++ {
		if err := pub.Publish(seqEvent(i, 256)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	<-ran
	// The broker's side of the connection winds down on its own schedule.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before Open, %d after Close:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPublishAllocs: a steady-state Publish allocates nothing — the
// coalescer reuses its buffers and spawns its flusher without a closure.
func TestPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers, so allocation counts mean nothing")
	}
	_, addr := startServer(t)
	pub, err := Open(addr, "allocs", Options{Source: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	ev := seqEvent(1, 64)
	for i := 0; i < 100; i++ {
		if err := pub.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if err := pub.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Publish allocates %v times per call, want 0", allocs)
	}
}

// TestBufferedBurstDoesNotOverflow is the regression test for a broker
// whose read loop finds a publisher's burst already buffered: pass after
// fan-out pass runs without blocking, and on two processors the sink
// writers those passes spawn could not run until the DropNewest queues
// overflowed. A raw publisher sends four queues' worth in one batch to four
// sinks; none may lose a frame.
func TestBufferedBurstDoesNotOverflow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const (
		queueCap = 1024
		events   = 4 * queueCap
		sinks    = 4
	)
	_, reg, addr := startFanoutServer(t, WithFanoutQueue(queueCap, fanout.DropNewest))
	var all []*seqSink
	for i := 0; i < sinks; i++ {
		all = append(all, openSeqSink(t, addr, "burst", events))
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	pub := wire.NewConn(nc)
	if err := pub.WriteRecord(encodeRequest(openRequest{ChannelID: "burst", IsSource: true}, false)); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.ReadRecord(); err != nil {
		t.Fatalf("handshake response: %v", err)
	}
	batch := make([]wire.BatchFrame, events)
	for i := range batch {
		batch[i] = wire.BatchFrame{Data: pbio.EncodeRecord(seqEvent(uint64(i), 16)), Format: seqFormat}
	}
	if err := pub.WriteEncodedBatchCtx(batch); err != nil {
		t.Fatal(err)
	}

	// A dropped frame never arrives, so stop waiting at the first drop.
	drops := reg.Counter(obs.LabeledName("echo.channel.drops", "channel", "burst"))
	deadline := time.Now().Add(20 * time.Second)
	for i, s := range all {
		for waiting := true; waiting; {
			select {
			case <-s.done:
				waiting = false
			case <-time.After(5 * time.Millisecond):
			}
			if n := drops.Load(); n != 0 {
				t.Fatalf("fan-out dropped %d frames of a buffered burst", n)
			}
			if waiting && time.Now().After(deadline) {
				s.mu.Lock()
				n := len(s.seqs)
				s.mu.Unlock()
				t.Fatalf("sink %d received %d of %d events", i, n, events)
			}
		}
		for j, seq := range s.wait(t) {
			if seq != uint64(j) {
				t.Fatalf("sink %d: event %d carried seq %d", i, j, seq)
			}
		}
	}
}
