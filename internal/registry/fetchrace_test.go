package registry

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/wire"
)

// stallDaemon is a fake registry daemon whose opGet responses park until the
// test releases them, so the test can interleave a watch-event push against
// an in-flight cold fetch in either order — deterministically, which a real
// Server cannot offer.
type stallDaemon struct {
	ln net.Listener

	mu   sync.Mutex
	conn *wire.Conn // the (single) client connection, once accepted

	getParked chan uint64 // reqID of each parked opGet, in arrival order
	getReply  chan stallReply
}

type stallReply struct {
	status  byte
	payload []byte
}

func startStallDaemon(t *testing.T) *stallDaemon {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &stallDaemon{
		ln:        ln,
		getParked: make(chan uint64, 4),
		getReply:  make(chan stallReply, 4),
	}
	go d.serve()
	t.Cleanup(func() { _ = ln.Close() })
	return d
}

func (d *stallDaemon) serve() {
	nc, err := d.ln.Accept()
	if err != nil {
		return
	}
	var conn *wire.Conn
	conn = wire.NewConn(nc, wire.WithControlHook(wire.FrameRegistry, func(body []byte) error {
		op, reqID, _, err := parseHeader(body)
		if err != nil {
			return err
		}
		switch op {
		case opGet:
			// Park: the response waits for the test's explicit release. The
			// read pump blocks with it, but event pushes come from the test's
			// goroutine through the wire write lock, so they still flow.
			d.getParked <- reqID
			r := <-d.getReply
			return conn.WriteControl(wire.FrameRegistry,
				appendResponse(nil, opGetResp, reqID, r.status, r.payload))
		case opHello:
			return conn.WriteControl(wire.FrameRegistry,
				appendResponse(nil, opHelloResp, reqID, statusOK, appendHello(nil, capWatch, 7, 0)))
		case opWatch:
			return conn.WriteControl(wire.FrameRegistry,
				appendResponse(nil, opWatchResp, reqID, statusOK, []byte{0}))
		}
		return nil
	}))
	d.mu.Lock()
	d.conn = conn
	d.mu.Unlock()
	for {
		if _, _, err := conn.ReadEncoded(); err != nil {
			return
		}
	}
}

// pushEvent injects one watch-event frame at the connected client, exactly
// as the daemon's watch pump would.
func (d *stallDaemon) pushEvent(t *testing.T, seq, fp uint64, blob []byte) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		d.mu.Lock()
		conn := d.conn
		d.mu.Unlock()
		if conn != nil {
			if err := conn.WriteControl(wire.FrameRegistry, appendEvent(nil, seq, fp, blob)); err != nil {
				t.Fatalf("push event: %v", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no client connection to push the event at")
		}
		time.Sleep(time.Millisecond)
	}
}

// fetchRaceFixture builds the shared pieces: the raceEntries and a client
// against the stalling daemon.
func fetchRaceFixture(t *testing.T) (*stallDaemon, *Client, *pbio.Format, []byte, []byte) {
	t.Helper()
	d := startStallDaemon(t)
	f, oldBlob, newBlob := raceEntries(t)
	// Watch disabled keeps the connection free of hello/watch RPC noise; the
	// client applies pushed events regardless of subscription state.
	c := NewClient(d.ln.Addr().String(), WithWatchDisabled(), WithNegTTL(time.Hour))
	t.Cleanup(func() { _ = c.Close() })
	return d, c, f, oldBlob, newBlob
}

// raceEntries returns one format and an old and a new entry blob for its
// fingerprint; the revisions differ in their transform code, which is not
// part of the fingerprint.
func raceEntries(t *testing.T) (*pbio.Format, []byte, []byte) {
	t.Helper()
	f := testFormat(t, "raced", 1)
	old := testFormat(t, "raced", 0)
	oldBlob := encodeEntry(f, []*core.Xform{{From: f, To: old, Code: "old.id = new.id;"}})
	newBlob := encodeEntry(f, []*core.Xform{{From: f, To: old, Code: "old.id = new.id; old.body = new.body;"}})
	return f, oldBlob, newBlob
}

// xformCode extracts the (single) transform code of a resolution result for
// telling the two entry revisions apart.
func xformCode(t *testing.T, xforms []*core.Xform) string {
	t.Helper()
	if len(xforms) != 1 {
		t.Fatalf("resolved %d transforms, want 1", len(xforms))
	}
	return xforms[0].Code
}

// TestWatchEventDuringInflightFetch is the regression test for the
// stale-overwrite race: a watch invalidation event that lands while a cold
// fetch for the same fingerprint is in flight used to be clobbered when the
// fetch completed afterwards — the LRU ended up holding the older revision
// the daemon had answered with before the event was emitted. The fetch
// result must yield to the event's entry.
func TestWatchEventDuringInflightFetch(t *testing.T) {
	d, c, f, oldBlob, newBlob := fetchRaceFixture(t)
	fp := f.Fingerprint()

	type outcome struct {
		xforms []*core.Xform
		err    error
	}
	got := make(chan outcome, 1)
	go func() {
		_, xf, err := c.ResolveFormat(fp)
		got <- outcome{xf, err}
	}()

	// The fetch is now parked inside the daemon. Deliver the invalidation
	// event carrying the NEW revision and wait until the client applied it.
	<-d.getParked
	d.pushEvent(t, 1, fp, newBlob)
	waitFor(t, "event applied to the LRU", func() bool { return c.Holds(f) })

	// Release the fetch with the OLD revision — the state of the table
	// before the event. Completing now, it must not overwrite the event.
	d.getReply <- stallReply{status: statusOK, payload: oldBlob}

	res := <-got
	if res.err != nil {
		t.Fatalf("resolve: %v", res.err)
	}
	if code := xformCode(t, res.xforms); code != "old.id = new.id; old.body = new.body;" {
		t.Errorf("resolve returned the stale fetch revision: %q", code)
	}
	// The cache must keep serving the event's revision too.
	_, xf, err := c.ResolveFormat(fp)
	if err != nil {
		t.Fatalf("re-resolve: %v", err)
	}
	if code := xformCode(t, xf); code != "old.id = new.id; old.body = new.body;" {
		t.Errorf("LRU holds the stale fetch revision: %q", code)
	}
}

// TestWatchEventDuringInflightUnknown covers the negative-cache half of the
// same race: the daemon answers the parked fetch "unknown fingerprint"
// (true when the fetch was dispatched), but the registration event arrives
// before that answer does. The stale unknown must neither be returned nor
// re-poison the negative cache the event already cleared.
func TestWatchEventDuringInflightUnknown(t *testing.T) {
	d, c, f, _, newBlob := fetchRaceFixture(t)
	fp := f.Fingerprint()

	type outcome struct {
		xforms []*core.Xform
		err    error
	}
	got := make(chan outcome, 1)
	go func() {
		_, xf, err := c.ResolveFormat(fp)
		got <- outcome{xf, err}
	}()

	<-d.getParked
	d.pushEvent(t, 1, fp, newBlob)
	waitFor(t, "event applied to the LRU", func() bool { return c.Holds(f) })
	d.getReply <- stallReply{status: statusUnknown}

	res := <-got
	if res.err != nil {
		t.Fatalf("resolve answered the stale unknown instead of the event's entry: %v", res.err)
	}
	// With an hour-long negative TTL, any re-poisoning would stick: the next
	// resolution must hit the LRU, not the negative cache.
	if _, _, err := c.ResolveFormat(fp); errors.Is(err, ErrUnknownFingerprint) {
		t.Fatal("stale unknown re-poisoned the negative cache over the event")
	}
}

// TestFetchCompletesBeforeWatchEvent pins the opposite interleaving: when
// the fetch completes first, its insertion is legitimate — and the event
// arriving afterwards must still supersede it, exactly as invalidation
// events always have.
func TestFetchCompletesBeforeWatchEvent(t *testing.T) {
	d, c, f, oldBlob, newBlob := fetchRaceFixture(t)
	fp := f.Fingerprint()

	go func() {
		reqID := <-d.getParked
		_ = reqID
		d.getReply <- stallReply{status: statusOK, payload: oldBlob}
	}()
	_, xf, err := c.ResolveFormat(fp)
	if err != nil {
		t.Fatal(err)
	}
	if code := xformCode(t, xf); code != "old.id = new.id;" {
		t.Fatalf("fetch-first resolve returned %q, want the old revision", code)
	}

	d.pushEvent(t, 1, fp, newBlob)
	waitFor(t, "event superseded the fetched entry", func() bool {
		_, xf, err := c.ResolveFormat(fp)
		return err == nil && len(xf) == 1 && xf[0].Code == "old.id = new.id; old.body = new.body;"
	})
}

// TestReadRepairYieldsToWatchEvent: a cluster read that another replica
// answers is repaired into the preferred peer's LRU, and that repair must
// yield to a watch event the preferred peer applied while the other
// replica's get was in flight — exactly as a single peer's own fetch does.
// Peer 0 is preferred: it answers "unknown", a new-revision
// event then lands on it, and peer 1 finally answers with the old revision.
// The failover read asks the peers in turn, the fresh read all at once.
func TestReadRepairYieldsToWatchEvent(t *testing.T) {
	for _, fresh := range []bool{false, true} {
		name := "failover"
		if fresh {
			name = "fresh"
		}
		t.Run(name, func(t *testing.T) {
			d0, d1 := startStallDaemon(t), startStallDaemon(t)
			f, oldBlob, newBlob := raceEntries(t)
			fp := f.Fingerprint()
			reg := obs.NewRegistry("client")
			cc := NewClusterClient([]string{d0.ln.Addr().String(), d1.ln.Addr().String()},
				WithWatchDisabled(), WithNegTTL(time.Hour), WithClientObs(reg))
			t.Cleanup(func() { _ = cc.Close() })

			type outcome struct {
				xforms []*core.Xform
				err    error
			}
			got := make(chan outcome, 1)
			go func() {
				_, xf, err := cc.Resolve(fp, fresh)
				got <- outcome{xf, err}
			}()

			<-d0.getParked
			d0.getReply <- stallReply{status: statusUnknown}
			// Peer 0's answer must be in before its event is pushed, or the
			// event could overtake the answer it is racing against.
			waitFor(t, "peer 0's unknown answer", func() bool {
				return reg.Counter("registry.unknowns").Load() == 1
			})
			<-d1.getParked
			d0.pushEvent(t, 1, fp, newBlob)
			waitFor(t, "event applied to peer 0", func() bool { return cc.Holds(f) })
			d1.getReply <- stallReply{status: statusOK, payload: oldBlob}

			const newCode = "old.id = new.id; old.body = new.body;"
			res := <-got
			if res.err != nil {
				t.Fatalf("resolve: %v", res.err)
			}
			if code := xformCode(t, res.xforms); code != newCode {
				t.Errorf("resolve returned peer 1's stale revision: %q", code)
			}
			_, xf, err := cc.ResolveFormat(fp)
			if err != nil {
				t.Fatalf("re-resolve: %v", err)
			}
			if code := xformCode(t, xf); code != newCode {
				t.Errorf("read repair overwrote the preferred peer's event: LRU serves %q", code)
			}
		})
	}
}

// TestDaemonDeathFailsPendingAndDownsOnce: the daemon dies with several RPCs
// in flight on one session. Every pending call must fail (none may wait out
// its timeout), and the loss — noticed at once by each failed call and by the
// session's Done watcher — must count as one: the client enters the down
// state once, drops the session, and arms exactly one resubscribe. The
// resubscribe's own dial failures are probes and must not re-mark it down.
func TestDaemonDeathFailsPendingAndDownsOnce(t *testing.T) {
	d := startStallDaemon(t)
	reg := obs.NewRegistry("client")
	c := NewClient(d.ln.Addr().String(), WithClientObs(reg),
		WithTimeout(30*time.Second), WithBackoff(100*time.Millisecond))
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Watch(); err != nil {
		t.Fatalf("watch: %v", err)
	}

	const calls = 3
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		fp := testFormat(t, "doomed", i).Fingerprint()
		go func() {
			_, _, err := c.ResolveFormat(fp)
			errs <- err
		}()
	}
	// The first opGet parks the daemon's read loop; the rest queue behind it
	// in the socket. All three are pending on the client's session.
	<-d.getParked
	p := c.peers[0]
	p.mu.Lock()
	sess := p.sess
	p.mu.Unlock()
	waitFor(t, "all calls in flight", func() bool {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		return len(sess.pending) == calls
	})

	// Kill the daemon: listener first, so the resubscribe probes cannot
	// reconnect, then the connection with the calls still unanswered.
	_ = d.ln.Close()
	d.mu.Lock()
	_ = d.conn.Close()
	d.mu.Unlock()
	d.getReply <- stallReply{status: statusUnknown} // unpark the dead daemon's hook

	for i := 0; i < calls; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errSessionLost) {
				t.Errorf("pending call returned %v, want the connection loss", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a pending call outlived the daemon (would wait for its 30s timeout)")
		}
	}
	<-sess.Done()
	waitFor(t, "session dropped", func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.sess == nil
	})
	if c.WatchActive() {
		t.Error("WatchActive with no session")
	}
	p.mu.Lock()
	armed := p.resubTimer != nil
	p.mu.Unlock()
	if !armed {
		t.Error("no resubscribe armed after the session died")
	}
	// Let at least one resubscribe probe fail its dial (backoff is 100-150ms).
	errCount := reg.Counter("registry.errors")
	waitFor(t, "a resubscribe probe to run", func() bool { return errCount.Load() > calls })
	if n := reg.Counter("registry.downs").Load(); n != 1 {
		t.Errorf("registry.downs = %d, want 1: one loss, however many noticed it", n)
	}
}
