package echo

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pbio"
	"repro/internal/wire"
)

// startServer runs a Server on a loopback listener and tears it down with
// the test.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer()
	return srv, serve(t, srv)
}

// serve is startServer for a Server the test configured itself.
func serve(t *testing.T, srv *Server) string {
	t.Helper()
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
		case <-time.After(5 * time.Second):
			t.Error("server did not shut down")
		}
	})
	return ln.Addr().String()
}

func TestOpenNewClient(t *testing.T) {
	srv, addr := startServer(t)
	sub, err := Open(addr, "chan-1", Options{Source: true, Sink: true, Contact: "tcp:me:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	members := sub.Members()
	if len(members) != 1 || members[0].Info != "tcp:me:1" || !members[0].IsSource || !members[0].IsSink {
		t.Fatalf("members = %+v", members)
	}
	if sub.Channel() != "chan-1" {
		t.Errorf("Channel = %q", sub.Channel())
	}
	got := srv.Members("chan-1")
	if len(got) != 1 || got[0].Info != "tcp:me:1" {
		t.Errorf("server members = %+v", got)
	}
	if srv.Members("other") != nil {
		t.Error("unknown channel must report no members")
	}
}

// TestOldClientInterop is the paper's §4.1 headline scenario: a v1.0-only
// subscriber joins a v2.0 server. The response arrives in v2.0 format,
// carries the Figure 5 transformation, and is morphed to v1.0 at the
// receiver — "except for specifying the transformation code, no other
// changes are required anywhere in the system".
func TestOldClientInterop(t *testing.T) {
	_, addr := startServer(t)

	// Populate the channel with two new-version members first.
	pub, err := Open(addr, "evo", Options{Source: true, Contact: "tcp:newpub:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	snk, err := Open(addr, "evo", Options{Sink: true, Contact: "tcp:newsink:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer snk.Close()

	old, err := Open(addr, "evo", Options{Sink: true, Contact: "tcp:oldsink:1", V1Compat: true})
	if err != nil {
		t.Fatalf("v1-compat open against v2 server failed: %v", err)
	}
	defer old.Close()

	members := old.Members()
	if len(members) != 3 {
		t.Fatalf("members = %+v, want 3", members)
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Info < members[j].Info })
	if members[0].Info != "tcp:newpub:1" || !members[0].IsSource || members[0].IsSink {
		t.Errorf("publisher member wrong: %+v", members[0])
	}
	if members[1].Info != "tcp:newsink:1" || members[1].IsSource || !members[1].IsSink {
		t.Errorf("sink member wrong: %+v", members[1])
	}

	// The old client must have gone through an actual transformation.
	st := old.Morpher().Stats()
	if st.Transformed != 1 || st.Compiled != 1 {
		t.Errorf("morpher stats = %+v, want one compiled transform applied", st)
	}
}

func TestEventDelivery(t *testing.T) {
	_, addr := startServer(t)
	quote := pbio.MustFormat("Quote", []pbio.Field{
		{Name: "symbol", Kind: pbio.String},
		{Name: "price", Kind: pbio.Float},
	})

	snk, err := Open(addr, "quotes", Options{Sink: true})
	if err != nil {
		t.Fatal(err)
	}
	defer snk.Close()
	received := make(chan *pbio.Record, 4)
	if err := snk.Handle(quote, func(r *pbio.Record) error {
		received <- r
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	go func() { _ = snk.Run() }()

	pub, err := Open(addr, "quotes", Options{Source: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	ev := pbio.NewRecord(quote).
		MustSet("symbol", pbio.Str("ACME")).
		MustSet("price", pbio.Float64(12.5))
	if err := pub.Publish(ev); err != nil {
		t.Fatal(err)
	}

	select {
	case got := <-received:
		if v, _ := got.Get("symbol"); v.Strval() != "ACME" {
			t.Errorf("symbol = %q", v.Strval())
		}
		if v, _ := got.Get("price"); v.Float64() != 12.5 {
			t.Errorf("price = %v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event not delivered")
	}
}

// TestOpenReturnedMeansSubscribed pins the handshake ordering: the broker
// joins a member before it acknowledges it, and still never lets an event
// frame overtake the acknowledgement. The hook stalls the late sink's
// handshake between the two steps while a peer publishes; a witness sink
// that joined earlier proves the fan-out pass for that event has run. With
// the steps the other way round (acknowledge, then join) the event is never
// offered to the late sink at all.
func TestOpenReturnedMeansSubscribed(t *testing.T) {
	var arm atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	unstall := sync.OnceFunc(func() { close(release) })
	defer unstall()
	srv := NewServer()
	srv.hookJoined = func() {
		if arm.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	}
	addr := serve(t, srv)

	quote := pbio.MustFormat("Quote", []pbio.Field{{Name: "symbol", Kind: pbio.String}})
	listen := func(sub *Subscriber) chan *pbio.Record {
		got := make(chan *pbio.Record, 1)
		if err := sub.Handle(quote, func(r *pbio.Record) error {
			got <- r
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		go func() { _ = sub.Run() }()
		return got
	}
	await := func(who string, got chan *pbio.Record) {
		t.Helper()
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: event not delivered", who)
		}
	}

	witness, err := Open(addr, "quotes", Options{Sink: true})
	if err != nil {
		t.Fatal(err)
	}
	defer witness.Close()
	witnessGot := listen(witness)
	pub, err := Open(addr, "quotes", Options{Source: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	type opened struct {
		sub *Subscriber
		err error
	}
	lateOpen := make(chan opened, 1)
	arm.Store(true)
	go func() {
		sub, err := Open(addr, "quotes", Options{Sink: true})
		lateOpen <- opened{sub, err}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("late sink's handshake never reached the hook")
	}
	if err := pub.Publish(pbio.NewRecord(quote).MustSet("symbol", pbio.Str("ACME"))); err != nil {
		t.Fatal(err)
	}
	await("witness", witnessGot)
	unstall()

	late := <-lateOpen
	if late.err != nil {
		t.Fatalf("late Open (an event frame ahead of the response?): %v", late.err)
	}
	defer late.sub.Close()
	await("late sink", listen(late.sub))
}

// TestPayloadEvolution evolves an *event* format: the publisher uses Quote
// v2 (adds a volume field and renames nothing) and declares a transform to
// Quote v1; an old sink that only knows v1 still gets usable events.
func TestPayloadEvolution(t *testing.T) {
	_, addr := startServer(t)
	quoteV1 := pbio.MustFormat("Quote", []pbio.Field{
		{Name: "symbol", Kind: pbio.String},
		{Name: "cents", Kind: pbio.Integer},
	})
	quoteV2 := pbio.MustFormat("Quote", []pbio.Field{
		{Name: "symbol", Kind: pbio.String},
		{Name: "dollars", Kind: pbio.Float},
		{Name: "volume", Kind: pbio.Integer},
	})

	oldSink, err := Open(addr, "q", Options{Sink: true, Thresholds: &core.Thresholds{}})
	if err != nil {
		t.Fatal(err)
	}
	defer oldSink.Close()
	received := make(chan *pbio.Record, 1)
	if err := oldSink.Handle(quoteV1, func(r *pbio.Record) error {
		received <- r
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	go func() { _ = oldSink.Run() }()

	pub, err := Open(addr, "q", Options{Source: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	pub.Declare(quoteV2, &core.Xform{
		From: quoteV2,
		To:   quoteV1,
		Code: `old.symbol = new.symbol; old.cents = new.dollars * 100.0;`,
	})
	ev := pbio.NewRecord(quoteV2).
		MustSet("symbol", pbio.Str("XYZ")).
		MustSet("dollars", pbio.Float64(3.5)).
		MustSet("volume", pbio.Int(900))
	if err := pub.Publish(ev); err != nil {
		t.Fatal(err)
	}

	select {
	case got := <-received:
		if !got.Format().SameStructure(quoteV1) {
			t.Fatalf("delivered format %q, want quote v1", got.Format().Name())
		}
		if v, _ := got.Get("cents"); v.Int64() != 350 {
			t.Errorf("cents = %d, want 350", v.Int64())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evolved event not delivered")
	}
}

func TestFanoutExcludesPublisherAndNonSinks(t *testing.T) {
	_, addr := startServer(t)
	f := pbio.MustFormat("Tick", []pbio.Field{{Name: "n", Kind: pbio.Integer}})

	mkSink := func(name string) (*Subscriber, chan int64) {
		t.Helper()
		sub, err := Open(addr, "fan", Options{Sink: true, Contact: name})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sub.Close() })
		ch := make(chan int64, 16)
		if err := sub.Handle(f, func(r *pbio.Record) error {
			v, _ := r.Get("n")
			ch <- v.Int64()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		go func() { _ = sub.Run() }()
		return sub, ch
	}
	_, got1 := mkSink("sink1")
	_, got2 := mkSink("sink2")

	// A source+sink publisher: must NOT receive its own events.
	pub, err := Open(addr, "fan", Options{Source: true, Sink: true, Contact: "pub"})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	pubGot := make(chan int64, 16)
	if err := pub.Handle(f, func(r *pbio.Record) error {
		v, _ := r.Get("n")
		pubGot <- v.Int64()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	go func() { _ = pub.Run() }()

	if err := pub.Publish(pbio.NewRecord(f).MustSet("n", pbio.Int(7))); err != nil {
		t.Fatal(err)
	}
	for i, ch := range []chan int64{got1, got2} {
		select {
		case n := <-ch:
			if n != 7 {
				t.Errorf("sink %d got %d", i+1, n)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("sink %d did not receive", i+1)
		}
	}
	select {
	case n := <-pubGot:
		t.Errorf("publisher received its own event %d", n)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestLateSubscriberGetsEvolutionMeta ensures a sink that joins after a
// publisher declared its transforms still receives the meta-data.
func TestLateSubscriberGetsEvolutionMeta(t *testing.T) {
	_, addr := startServer(t)
	v1 := pbio.MustFormat("M", []pbio.Field{{Name: "a", Kind: pbio.Integer}})
	v2 := pbio.MustFormat("M", []pbio.Field{{Name: "b", Kind: pbio.Integer}})

	pub, err := Open(addr, "late", Options{Source: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	pub.Declare(v2, &core.Xform{From: v2, To: v1, Code: "old.a = new.b;"})
	// Publish once with no sinks present: the server learns the format and
	// its transform.
	if err := pub.Publish(pbio.NewRecord(v2).MustSet("b", pbio.Int(1))); err != nil {
		t.Fatal(err)
	}

	// Poll until the server has recorded the meta (the fanout of the first
	// publish races with the open below).
	deadline := time.Now().Add(5 * time.Second)
	for {
		sub, err := Open(addr, "late", Options{Sink: true, Thresholds: &core.Thresholds{}})
		if err != nil {
			t.Fatal(err)
		}
		received := make(chan int64, 1)
		if err := sub.Handle(v1, func(r *pbio.Record) error {
			v, _ := r.Get("a")
			received <- v.Int64()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		go func() { _ = sub.Run() }()
		if err := pub.Publish(pbio.NewRecord(v2).MustSet("b", pbio.Int(42))); err != nil {
			t.Fatal(err)
		}
	drain:
		for {
			select {
			case n := <-received:
				if n == 42 {
					_ = sub.Close()
					return
				}
				// The fanout of the first publish can race with this
				// subscriber joining; skip stragglers.
			case <-time.After(250 * time.Millisecond):
				break drain
			}
		}
		_ = sub.Close()
		if time.Now().After(deadline) {
			t.Fatal("late subscriber never received the morphed event")
		}
	}
}

func TestOpenTimeoutAgainstSilentPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = c // accept and never respond
		}
	}()
	_, err = Open(ln.Addr().String(), "x", Options{Sink: true, HandshakeTimeout: 200 * time.Millisecond})
	if err == nil {
		t.Fatal("Open against a silent peer must time out")
	}
}

func TestServerIgnoresBadHandshake(t *testing.T) {
	srv, addr := startServer(t)
	// A client that sends a non-request record first must simply be
	// dropped; the server must survive and keep serving.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bad := pbio.MustFormat("NotARequest", []pbio.Field{{Name: "x", Kind: pbio.Integer}})
	w := wire.NewConn(nc)
	if err := w.WriteRecord(pbio.NewRecord(bad)); err != nil {
		t.Fatal(err)
	}
	_ = nc.Close()

	// Server still serves proper clients.
	sub, err := Open(addr, "ok", Options{Sink: true})
	if err != nil {
		t.Fatalf("server died after bad handshake: %v", err)
	}
	_ = sub.Close()
	_ = srv
}

func TestCloseIsIdempotent(t *testing.T) {
	srv, addr := startServer(t)
	sub, err := Open(addr, "c", Options{Sink: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
