package fanout

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pbio"
	"repro/internal/trace"
)

var testFormat = pbio.MustFormat("QueueTest", []pbio.Field{
	{Name: "seq", Kind: pbio.Unsigned, Size: 8},
})

func testFrame(t testing.TB, seq uint64) *Frame {
	t.Helper()
	data := pbio.EncodeRecord(pbio.NewRecord(testFormat).MustSet("seq", pbio.Uint(seq)))
	return NewFrame(data, testFormat, trace.Context{}, time.Now())
}

// waitZeroLive waits for outstanding drain goroutines to release their
// frames; the pool balance is the leak check every test ends on.
func waitZeroLive(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for LiveFrames() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("LiveFrames = %d, want 0 (refcounted buffers leaked)", LiveFrames())
		}
		time.Sleep(time.Millisecond)
	}
}

// acct mirrors the echo server's gauge discipline: +1/+bytes on enqueue,
// -1/-bytes on settle, so any unpaired path shows up as a nonzero residue.
type acct struct {
	depth, pending  atomic.Int64
	delivered, drop atomic.Int64
}

func (a *acct) config() Config {
	return Config{
		OnEnqueue: func(fr *Frame) { a.depth.Add(1); a.pending.Add(int64(len(fr.Data))) },
		OnDeliver: func(fr *Frame, _ int64) {
			a.depth.Add(-1)
			a.pending.Add(-int64(len(fr.Data)))
			a.delivered.Add(1)
		},
		OnDrop: func(fr *Frame) {
			a.depth.Add(-1)
			a.pending.Add(-int64(len(fr.Data)))
			a.drop.Add(1)
		},
	}
}

func (a *acct) assertZeroInFlight(t *testing.T) {
	t.Helper()
	if d := a.depth.Load(); d != 0 {
		t.Errorf("queue_depth residue = %d, want 0", d)
	}
	if p := a.pending.Load(); p != 0 {
		t.Errorf("bytes_pending residue = %d, want 0", p)
	}
}

func TestFrameRefcountLifecycle(t *testing.T) {
	waitZeroLive(t)
	fr := testFrame(t, 1)
	if LiveFrames() != 1 {
		t.Fatalf("LiveFrames = %d after NewFrame, want 1", LiveFrames())
	}
	payload := append([]byte(nil), fr.Data...)
	fr.Retain()
	fr.Retain()
	fr.Release()
	fr.Release()
	if string(fr.Data) != string(payload) {
		t.Fatal("payload changed while references were held")
	}
	fr.Release()
	waitZeroLive(t)
}

// TestFrameStorageFitsMessage pins what a frame holds: the smallest power
// of two, from 64 bytes up, that fits its message, so a backlog of small
// events pins small buffers; past the top class, exactly the message.
func TestFrameStorageFitsMessage(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 64}, {16, 64}, {64, 64}, {65, 128}, {1000, 1024}, {4097, 8192},
		{1 << maxFrameClass, 1 << maxFrameClass}, {1<<maxFrameClass + 1, 1<<maxFrameClass + 1},
	} {
		data := make([]byte, c.n)
		for i := range data {
			data[i] = byte(i)
		}
		fr := NewFrame(data, testFormat, trace.Context{}, time.Time{})
		if string(fr.Data) != string(data) {
			t.Errorf("%d bytes: Data is not a copy of the message", c.n)
		}
		if got := cap(fr.Data); got != c.want {
			t.Errorf("%d bytes: frame storage %d, want %d", c.n, got, c.want)
		}
		fr.Release()
	}
	waitZeroLive(t)
}

func TestQueueDeliversInOrder(t *testing.T) {
	var mu sync.Mutex
	var got []uint64
	var flushes int
	q := NewQueue(Config{
		Manual: true,
		Flush: func(batch []*Frame) error {
			mu.Lock()
			defer mu.Unlock()
			flushes++
			for _, fr := range batch {
				rec, err := pbio.DecodeRecord(fr.Data, fr.Format)
				if err != nil {
					return err
				}
				v, _ := rec.Get("seq")
				got = append(got, uint64(v.Int64()))
			}
			return nil
		},
	})
	const n = 10
	for i := uint64(0); i < n; i++ {
		if !q.Enqueue(testFrame(t, i)) {
			t.Fatalf("Enqueue(%d) rejected", i)
		}
	}
	if drained := q.DrainNow(); drained != n {
		t.Fatalf("DrainNow = %d, want %d", drained, n)
	}
	if flushes != 1 {
		t.Errorf("flushes = %d, want 1 (the whole backlog must coalesce)", flushes)
	}
	for i := range got {
		if got[i] != uint64(i) {
			t.Fatalf("delivery order %v, want ascending", got)
		}
	}
	waitZeroLive(t)
}

func TestQueueWriterCoalesces(t *testing.T) {
	block := make(chan struct{})
	var flushed, flushes atomic.Int64
	first := true
	q := NewQueue(Config{
		Flush: func(batch []*Frame) error {
			if first {
				first = false
				<-block // hold the first flush so a backlog builds
			}
			flushes.Add(1)
			flushed.Add(int64(len(batch)))
			return nil
		},
	})
	q.Enqueue(testFrame(t, 0)) // wakes the writer, which blocks in flush
	for i := uint64(1); i <= 8; i++ {
		q.Enqueue(testFrame(t, i))
	}
	close(block)
	deadline := time.Now().Add(5 * time.Second)
	for flushed.Load() != 9 {
		if time.Now().After(deadline) {
			t.Fatalf("flushed %d of 9 frames", flushed.Load())
		}
		time.Sleep(time.Millisecond)
	}
	// Flush 1 carried the first frame; the 8 that queued behind it must
	// arrive in far fewer than 8 flushes (one, absent scheduler
	// interleaving — allow slack but require real coalescing).
	if f := flushes.Load(); f > 4 {
		t.Errorf("8 backlogged frames took %d flushes, want coalescing", f)
	}
	waitZeroLive(t)
}

// TestQueueOverflowDropNewest: a full queue rejects new frames, keeps old
// ones, stays connected, and the accounting stays paired.
func TestQueueOverflowDropNewest(t *testing.T) {
	var a acct
	cfg := a.config()
	cfg.Manual = true
	cfg.Cap = 4
	var flushed atomic.Int64
	cfg.Flush = func(batch []*Frame) error { flushed.Add(int64(len(batch))); return nil }
	cfg.OnFail = func(err error) { t.Errorf("OnFail(%v) fired for DropNewest", err) }
	q := NewQueue(cfg)
	for i := uint64(0); i < 7; i++ {
		q.Enqueue(testFrame(t, i))
	}
	if d := q.Depth(); d != 4 {
		t.Fatalf("Depth = %d, want cap 4", d)
	}
	if drops := a.drop.Load(); drops != 3 {
		t.Fatalf("dropped = %d, want 3", drops)
	}
	q.DrainNow()
	if flushed.Load() != 4 {
		t.Fatalf("flushed = %d, want 4", flushed.Load())
	}
	a.assertZeroInFlight(t)
	waitZeroLive(t)
}

// TestQueueOverflowDisconnect: the Disconnect policy fails the queue,
// discards the backlog with accounting, and notifies OnFail exactly once.
func TestQueueOverflowDisconnect(t *testing.T) {
	var a acct
	var fails atomic.Int64
	cfg := a.config()
	cfg.Manual = true
	cfg.Cap = 2
	cfg.Policy = Disconnect
	cfg.Flush = func([]*Frame) error { return nil }
	cfg.OnFail = func(err error) {
		if !errors.Is(err, ErrOverflow) {
			t.Errorf("OnFail err = %v, want ErrOverflow", err)
		}
		fails.Add(1)
	}
	q := NewQueue(cfg)
	for i := uint64(0); i < 5; i++ {
		q.Enqueue(testFrame(t, i))
	}
	if !q.Failed() {
		t.Fatal("queue did not fail on overflow under Disconnect")
	}
	if fails.Load() != 1 {
		t.Fatalf("OnFail fired %d times, want 1", fails.Load())
	}
	if a.delivered.Load() != 0 || a.drop.Load() != 5 {
		t.Fatalf("delivered/dropped = %d/%d, want 0/5", a.delivered.Load(), a.drop.Load())
	}
	a.assertZeroInFlight(t)
	waitZeroLive(t)
}

// TestQueueFailedWriteReleasesGauges is the delivery-accounting-leak
// regression test: after a flush error, every gauge increment must have its
// paired decrement even though no frame was delivered, and the backlog that
// raced in behind the failing batch settles too.
func TestQueueFailedWriteReleasesGauges(t *testing.T) {
	var a acct
	var fails atomic.Int64
	boom := errors.New("sink write failed")
	cfg := a.config()
	cfg.Manual = true
	cfg.Flush = func([]*Frame) error { return boom }
	cfg.OnFail = func(err error) {
		if !errors.Is(err, boom) {
			t.Errorf("OnFail err = %v, want %v", err, boom)
		}
		fails.Add(1)
	}
	q := NewQueue(cfg)
	for i := uint64(0); i < 6; i++ {
		q.Enqueue(testFrame(t, i))
	}
	q.DrainNow()
	// Enqueues after the failure must settle through the same pairing.
	q.Enqueue(testFrame(t, 99))
	if fails.Load() != 1 {
		t.Fatalf("OnFail fired %d times, want 1", fails.Load())
	}
	if a.delivered.Load() != 0 || a.drop.Load() != 7 {
		t.Fatalf("delivered/dropped = %d/%d, want 0/7", a.delivered.Load(), a.drop.Load())
	}
	a.assertZeroInFlight(t)
	waitZeroLive(t)
}

// TestQueueCloseSettlesBacklog: Close drops queued frames with paired
// accounting and without OnFail, and rejects later enqueues.
func TestQueueCloseSettlesBacklog(t *testing.T) {
	var a acct
	cfg := a.config()
	cfg.Manual = true
	cfg.Flush = func([]*Frame) error { return nil }
	cfg.OnFail = func(err error) { t.Errorf("OnFail(%v) fired on Close", err) }
	q := NewQueue(cfg)
	for i := uint64(0); i < 3; i++ {
		q.Enqueue(testFrame(t, i))
	}
	q.Close()
	q.Close() // idempotent
	if q.Enqueue(testFrame(t, 9)) {
		t.Error("Enqueue admitted a frame after Close")
	}
	if a.drop.Load() != 4 {
		t.Fatalf("dropped = %d, want 4", a.drop.Load())
	}
	a.assertZeroInFlight(t)
	waitZeroLive(t)
}

// TestQueueConcurrentChurn hammers many queues from concurrent publishers
// while closing them mid-stream; under -race this is the engine-level half
// of the churn suite. Every frame must settle (pool balance zero) and the
// gauges must pair on every path.
func TestQueueConcurrentChurn(t *testing.T) {
	waitZeroLive(t)
	var a acct
	const (
		queues     = 40
		publishers = 4
		events     = 200
	)
	var slowCalls atomic.Int64
	qs := make([]*Queue, queues)
	for i := range qs {
		cfg := a.config()
		cfg.Cap = 64
		i := i
		cfg.Flush = func(batch []*Frame) error {
			if i%5 == 0 { // every fifth sink is slow
				slowCalls.Add(1)
				time.Sleep(200 * time.Microsecond)
			}
			if i%7 == 3 && slowCalls.Load()%3 == 0 {
				return fmt.Errorf("sink %d transient failure", i)
			}
			return nil
		}
		qs[i] = NewQueue(cfg)
	}
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for e := 0; e < events; e++ {
				fr := testFrame(t, uint64(p*events+e))
				for _, q := range qs {
					fr.Retain()
					q.Enqueue(fr)
				}
				fr.Release()
			}
		}(p)
	}
	// Close a third of the queues while the publishers are mid-stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < queues; i += 3 {
			qs[i].Close()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	wg.Wait()
	for _, q := range qs {
		q.Close()
	}
	waitZeroLive(t)
	deadline := time.Now().Add(5 * time.Second)
	for a.depth.Load() != 0 || a.pending.Load() != 0 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	a.assertZeroInFlight(t)
	total := int64(publishers * events * queues)
	if settled := a.delivered.Load() + a.drop.Load(); settled != total {
		t.Errorf("settled %d of %d offered frames", settled, total)
	}
}

// TestQueueCloseVsDrainRace is the targeted refcount audit for the
// Close/DrainNow collision: 1k rounds, each racing a publisher, a
// synchronous drain, a Close, and (on writer-backed rounds) the spawned
// writer over one queue — with every fourth round's flush failing mid-race.
// Whatever interleaving the scheduler picks, every frame must settle exactly
// once: a double-Release panics in Frame.Release, a leak leaves LiveFrames
// nonzero, an unpaired gauge leaves depth residue.
func TestQueueCloseVsDrainRace(t *testing.T) {
	waitZeroLive(t)
	var a acct
	const (
		rounds = 1000
		frames = 16
	)
	var offered int64
	for round := 0; round < rounds; round++ {
		cfg := a.config()
		cfg.Cap = frames / 2 // force the overflow path into the mix too
		cfg.Manual = round%2 == 1
		fail := round%4 == 3
		cfg.Flush = func(batch []*Frame) error {
			if fail {
				return errors.New("sink died mid-drain")
			}
			return nil
		}
		if round%8 == 5 {
			cfg.Policy = Disconnect
		}
		q := NewQueue(cfg)

		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			<-start
			for i := uint64(0); i < frames; i++ {
				q.Enqueue(testFrame(t, i))
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			q.DrainNow()
			q.DrainNow()
		}()
		go func() {
			defer wg.Done()
			<-start
			q.Close()
		}()
		close(start)
		wg.Wait()
		q.Close() // settle frames enqueued after the racing Close lost
		offered += frames
	}
	waitZeroLive(t)
	deadline := time.Now().Add(5 * time.Second)
	for a.depth.Load() != 0 || a.pending.Load() != 0 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	a.assertZeroInFlight(t)
	if settled := a.delivered.Load() + a.drop.Load(); settled != offered {
		t.Errorf("settled %d of %d offered frames across %d close-vs-drain races", settled, offered, rounds)
	}
}

// TestFramePathAllocs is the 0-alloc floor for the shared-frame delivery
// path: wrap, retain across k sinks, enqueue, drain, release — steady
// state must not allocate per delivery.
func TestFramePathAllocs(t *testing.T) {
	data := pbio.EncodeRecord(pbio.NewRecord(testFormat).MustSet("seq", pbio.Uint(7)))
	var scratch [256]byte
	const sinks = 8
	qs := make([]*Queue, sinks)
	for i := range qs {
		qs[i] = NewQueue(Config{
			Manual: true,
			Flush: func(batch []*Frame) error {
				for _, fr := range batch {
					copy(scratch[:], fr.Data)
				}
				return nil
			},
		})
	}
	round := func() {
		fr := NewFrame(data, testFormat, trace.Context{}, time.Time{})
		for _, q := range qs {
			fr.Retain()
			q.Enqueue(fr)
		}
		fr.Release()
		for _, q := range qs {
			q.DrainNow()
		}
	}
	for i := 0; i < 16; i++ {
		round() // warm pools and queue backing arrays
	}
	if allocs := testing.AllocsPerRun(100, round); allocs > 0 {
		t.Errorf("shared-frame path allocates %.1f per round (%d deliveries), want 0", allocs, sinks)
	}
	waitZeroLive(t)
}

// TestQueueOnWriterBalanced pins the OnWriter contract: +1/-1 pairs on
// every writer pass — spawn-on-demand drain, Manual DrainNow, and the
// failure path — so a gauge fed by the hook always settles back to zero
// when the queue goes idle.
func TestQueueOnWriterBalanced(t *testing.T) {
	var active atomic.Int64
	var peak atomic.Int64
	onWriter := func(delta int) {
		now := active.Add(int64(delta))
		if now < 0 {
			t.Errorf("active writers went negative (%d): unpaired -1", now)
		}
		for {
			p := peak.Load()
			if now <= p || peak.CompareAndSwap(p, now) {
				break
			}
		}
	}
	waitSettled := func(q *Queue) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !q.Idle() || active.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("writer gauge stuck: idle=%v active=%d", q.Idle(), active.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Spawn-on-demand drain: bursts of enqueues spawn writers; when the
	// backlog empties, the gauge must return to zero.
	q := NewQueue(Config{
		Flush:    func([]*Frame) error { time.Sleep(100 * time.Microsecond); return nil },
		OnWriter: onWriter,
	})
	for burst := 0; burst < 5; burst++ {
		for i := uint64(0); i < 20; i++ {
			q.Enqueue(testFrame(t, i))
		}
		time.Sleep(time.Millisecond)
	}
	waitSettled(q)
	if peak.Load() == 0 {
		t.Fatal("OnWriter never reported an active writer pass")
	}
	q.Close()
	waitSettled(q)

	// Manual queues: no writer until DrainNow, exactly one during it.
	peak.Store(0)
	var duringDrain int64
	mq := NewQueue(Config{
		Manual:   true,
		Flush:    func([]*Frame) error { duringDrain = active.Load(); return nil },
		OnWriter: onWriter,
	})
	mq.Enqueue(testFrame(t, 1))
	if active.Load() != 0 {
		t.Fatalf("manual queue reported %d writers before DrainNow", active.Load())
	}
	if n := mq.DrainNow(); n != 1 {
		t.Fatalf("DrainNow = %d, want 1", n)
	}
	if duringDrain != 1 {
		t.Fatalf("active writers during DrainNow flush = %d, want 1", duringDrain)
	}
	if active.Load() != 0 {
		t.Fatalf("manual writer gauge residue %d after DrainNow", active.Load())
	}

	// Failure path: a flush error kills the writer pass; the -1 still fires.
	fq := NewQueue(Config{
		Flush:    func([]*Frame) error { return errors.New("sink gone") },
		OnWriter: onWriter,
	})
	fq.Enqueue(testFrame(t, 1))
	deadline := time.Now().Add(5 * time.Second)
	for !fq.Failed() || active.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("failed-path gauge stuck: failed=%v active=%d", fq.Failed(), active.Load())
		}
		time.Sleep(time.Millisecond)
	}
	waitZeroLive(t)
}

// TestQueueWriterSpawnAllocs is TestFramePathAllocs for a writer-backed
// queue: an enqueue into an idle queue spawns the writer goroutine, which
// flushes the frame and exits, and that spawn-and-drain allocates nothing.
func TestQueueWriterSpawnAllocs(t *testing.T) {
	data := pbio.EncodeRecord(pbio.NewRecord(testFormat).MustSet("seq", pbio.Uint(7)))
	var scratch [256]byte
	q := NewQueue(Config{Flush: func(batch []*Frame) error {
		for _, fr := range batch {
			copy(scratch[:], fr.Data)
		}
		return nil
	}})
	round := func() {
		q.Enqueue(NewFrame(data, testFormat, trace.Context{}, time.Time{}))
		for !q.Idle() {
			runtime.Gosched()
		}
	}
	for i := 0; i < 1000; i++ {
		round() // warm the frame pool, the queue's arrays and the runtime's free goroutines
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs > 0 {
		t.Errorf("writer spawn-and-drain allocates %.1f per frame, want 0", allocs)
	}
	waitZeroLive(t)
}
