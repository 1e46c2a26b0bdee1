package echo

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fanout"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/trace"
	"repro/internal/wire"
)

var seqFormat = pbio.MustFormat("FanoutSeq", []pbio.Field{
	{Name: "seq", Kind: pbio.Unsigned, Size: 8},
	{Name: "pad", Kind: pbio.String},
})

func seqEvent(seq uint64, padBytes int) *pbio.Record {
	return pbio.NewRecord(seqFormat).
		MustSet("seq", pbio.Uint(seq)).
		MustSet("pad", pbio.Str(strings.Repeat("x", padBytes)))
}

func waitNoLiveFrames(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for fanout.LiveFrames() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("fanout.LiveFrames = %d, want 0 (refcounted frames leaked)", fanout.LiveFrames())
		}
		time.Sleep(time.Millisecond)
	}
}

// startFanoutServer is startObsServer with delivery-engine options.
func startFanoutServer(t *testing.T, opts ...ServerOption) (*Server, *obs.Registry, string) {
	t.Helper()
	reg := obs.NewRegistry("fanout-e2e")
	srv := NewServer(append([]ServerOption{WithObs(reg)}, opts...)...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		_ = srv.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("server did not shut down")
		}
	})
	return srv, reg, ln.Addr().String()
}

// TestSlowSinkIsolation is the acceptance assertion for the delivery engine:
// one sink that stops reading must not delay the others. The stalled sink's
// socket fills, its writer blocks, and the backlog pins in its own bounded
// queue while the fast sink receives every event — under the old serial
// fan-out the pass itself blocked on the stalled sink's write, starving
// everyone.
func TestSlowSinkIsolation(t *testing.T) {
	_, reg, addr := startFanoutServer(t, WithFanoutQueue(1<<15, fanout.DropNewest))

	fast, err := Open(addr, "iso", Options{Sink: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	received := make(chan uint64, 4096)
	if err := fast.Handle(seqFormat, func(r *pbio.Record) error {
		v, _ := r.Get("seq")
		received <- uint64(v.Int64())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	go func() { _ = fast.Run() }()

	// The slow sink completes the handshake and then never reads: its
	// kernel socket buffer fills, its writer blocks, its queue overflows.
	slow, err := Open(addr, "iso", Options{Sink: true})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()

	pub, err := Open(addr, "iso", Options{Source: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const events = 1500
	const pad = 16 << 10 // 24 MiB total overwhelms loopback socket buffering
	for i := uint64(0); i < events; i++ {
		if err := pub.Publish(seqEvent(i, pad)); err != nil {
			t.Fatal(err)
		}
	}

	next := uint64(0)
	deadline := time.After(20 * time.Second)
	for next < events {
		select {
		case got := <-received:
			if got != next {
				t.Fatalf("fast sink saw seq %d, want %d (lost or reordered)", got, next)
			}
			next++
		case <-deadline:
			t.Fatalf("fast sink stalled at %d of %d events behind a slow sink", next, events)
		}
	}

	// The slow sink (member ID 2: fast joined first) is visibly backlogged:
	// its writer is blocked on the full socket, so undelivered frames stand
	// in its queue_depth/bytes_pending gauges — on nobody else's.
	snap := reg.Snapshot()
	slowDepth := snap.Gauges[obs.LabeledName("echo.sink.queue_depth", "channel", "iso", "sink", "2")]
	slowPending := snap.Gauges[obs.LabeledName("echo.sink.bytes_pending", "channel", "iso", "sink", "2")]
	if slowDepth == 0 && slowPending == 0 {
		t.Errorf("slow sink shows no backlog (depth=%d pending=%d); the stall never isolated", slowDepth, slowPending)
	}
	fastDropped := snap.Counters[obs.LabeledName("echo.sink.dropped", "channel", "iso", "sink", "1")]
	if fastDropped != 0 {
		t.Errorf("fast sink dropped %d events", fastDropped)
	}
	// Coalescing is observable: with the publisher far ahead of the fast
	// sink's writer, flushes must have carried multiple frames.
	flush := snap.Histograms[obs.LabeledName("echo.channel.flush_frames", "channel", "iso")]
	if flush.Count == 0 || flush.Max < 2 {
		t.Errorf("flush_frames = %+v, want batches of 2+ under backlog", flush)
	}
}

// errStream fails every write — a sink whose transport died mid-delivery.
type errStream struct{}

func (errStream) Read(p []byte) (int, error)  { return 0, errors.New("gone") }
func (errStream) Write(p []byte) (int, error) { return 0, errors.New("gone") }
func (errStream) Close() error                { return nil }

// TestFailedWriteReleasesGauges is satellite coverage for the
// delivery-accounting pairing at the echo layer: when a sink's write fails
// mid-batch, its queue_depth/bytes_pending gauges must return to zero (no
// stranded increments), its dropped counter must absorb the backlog, and
// the sink must be removed from membership with its series GC'd.
func TestFailedWriteReleasesGauges(t *testing.T) {
	reg := obs.NewRegistry("gauge-pairing")
	ch := &channel{id: "c", om: &echoObs{}, obsReg: reg}
	mc := &memberConn{conn: wire.NewStreamConn(errStream{})}
	mc.member = Member{ID: 1, IsSink: true}
	mc.so = newSinkObs(reg, ch.id, mc.member.ID, &mc.depth)
	mc.q = ch.newSinkQueue(mc)
	ch.add(mc)

	pub := &memberConn{}
	data := pbio.EncodeRecord(seqEvent(1, 64))
	const events = 5
	for i := 0; i < events; i++ {
		ch.fanout(pub, seqFormat, data, trace.Context{})
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(ch.memberList()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("failed sink was never removed from membership")
		}
		time.Sleep(time.Millisecond)
	}
	waitNoLiveFrames(t)

	// The sinkObs handles outlive the series GC, so the post-failure gauge
	// values are observable even though the registry no longer exports them.
	if d := mc.depth.Load(); d != 0 {
		t.Errorf("queue_depth = %d after failed write, want 0", d)
	}
	if p := mc.so.pending.Load(); p != 0 {
		t.Errorf("bytes_pending = %d after failed write, want 0", p)
	}
	if drops := mc.so.dropped.Load(); drops == 0 {
		t.Error("dropped = 0; the failed backlog was not accounted")
	}
	if n := len(ch.memberList()); n != 0 {
		t.Errorf("membership list still holds %d members", n)
	}
	if _, ok := reg.Snapshot().Gauges[mc.so.names[1]]; ok {
		t.Error("failed sink's series survived removal")
	}
}

// TestFanoutChurnStress subscribes and unsubscribes hundreds of sinks while
// a publisher streams sequenced events, under -race via check.sh: stable
// members must see every event in order with none lost, removed sinks must
// stop receiving (their queues close), and every refcounted frame must
// return to its pool.
func TestFanoutChurnStress(t *testing.T) {
	waitNoLiveFrames(t)
	_, reg, addr := startFanoutServer(t, WithFanoutQueue(1<<16, fanout.DropNewest))

	const (
		stableSinks = 8
		churners    = 120
		events      = 400
	)

	// Stable sinks join before publishing starts, so they must see the full
	// sequence 0..events-1 gap-free and in order.
	type stable struct {
		sub  *Subscriber
		seqs []uint64
		done chan struct{}
	}
	stables := make([]*stable, stableSinks)
	for i := range stables {
		sub, err := Open(addr, "churn", Options{Sink: true})
		if err != nil {
			t.Fatal(err)
		}
		st := &stable{sub: sub, done: make(chan struct{})}
		if err := sub.Handle(seqFormat, func(r *pbio.Record) error {
			v, _ := r.Get("seq")
			st.seqs = append(st.seqs, uint64(v.Int64()))
			if len(st.seqs) == events {
				close(st.done)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		go func() { _ = st.sub.Run() }()
		stables[i] = st
		defer sub.Close()
	}

	pub, err := Open(addr, "churn", Options{Source: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churners connect, receive whatever happens by, and disconnect — some
	// immediately, exercising the remove/enqueue race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < churners; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sub, err := Open(addr, "churn", Options{Sink: true})
			if err != nil {
				continue // server mid-shutdown; the stable asserts still run
			}
			sub.HandleDefault(func(*pbio.Record) error { return nil })
			go func() { _ = sub.Run() }()
			if i%3 != 0 {
				time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
			}
			_ = sub.Close()
		}
	}()

	for i := uint64(0); i < events; i++ {
		if err := pub.Publish(seqEvent(i, 128)); err != nil {
			t.Fatal(err)
		}
	}

	for i, st := range stables {
		select {
		case <-st.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("stable sink %d received %d of %d events", i, len(st.seqs), events)
		}
	}
	close(stop)
	wg.Wait()

	for i, st := range stables {
		for j, got := range st.seqs {
			if got != uint64(j) {
				t.Fatalf("stable sink %d: event %d carried seq %d — lost or reordered frames", i, j, got)
			}
		}
		if drops := reg.Snapshot().Counters[obs.LabeledName("echo.sink.dropped", "channel", "churn", "sink", fmt.Sprint(i+1))]; drops != 0 {
			t.Errorf("stable sink %d dropped %d frames", i, drops)
		}
	}

	// Leak check: once the stable sinks close and the server drains, every
	// refcounted frame must have returned to the pool.
	for _, st := range stables {
		_ = st.sub.Close()
	}
	waitNoLiveFrames(t)
}
