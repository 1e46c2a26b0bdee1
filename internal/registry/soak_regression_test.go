package registry

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
)

// These three tests are the minimized regressions for the bugs the fleet
// chaos soak (morphbench -exp fleet) flushed out. Each one reproduces, in a
// few milliseconds and without any process churn, the exact mechanism that
// took multi-minute soak runs and a debugger to isolate.

// TestResolveFreshBypassesDownGate: after a transport failure the
// client marks its daemon down and fails fast for a backoff window. In the
// soak, the replica inside that window was the just-restarted (and freshly
// promoted) daemon holding the only current copy of a collided fingerprint's
// transform set — honoring the gate on the fresh path made every fresh read
// miss it and morphers rejected live traffic. A fresh read exists precisely
// because cached knowledge is suspect, so it must bypass the down gate; a
// success doubles as proof of life and clears the down state.
func TestResolveFreshBypassesDownGate(t *testing.T) {
	_, addr := startDaemon(t)
	c := NewClient(addr, WithWatchDisabled(), WithBackoff(time.Hour))
	defer c.Close()
	pub := NewClient(addr)
	defer pub.Close()

	wide := testFormat(t, "ev", 1)
	v0 := testFormat(t, "ev", 0)
	x := &core.Xform{From: wide, To: v0, Code: "old.id = new.id; old.body = new.body;"}
	if err := pub.Register(wide, x); err != nil {
		t.Fatal(err)
	}

	// What a dial failure would do, minus the dial failure: an hour of
	// fail-fast for every ordinary RPC.
	p := c.peers[0]
	p.mu.Lock()
	p.markDownLocked()
	p.mu.Unlock()

	if _, _, err := c.ResolveFormat(wide.Fingerprint()); !errors.Is(err, ErrDown) {
		t.Fatalf("gated resolve returned %v, want ErrDown", err)
	}
	if _, xs, err := c.Resolve(wide.Fingerprint(), true); err != nil || len(xs) != 1 {
		t.Fatalf("fresh resolve under down gate: %d transforms, err %v; want 1, nil", len(xs), err)
	}
	// The successful forced RPC is a health probe in disguise: the gate is
	// lifted and ordinary reads work again immediately.
	if _, _, err := c.ResolveFormat(wide.Fingerprint()); err != nil {
		t.Fatalf("resolve after fresh success still gated: %v", err)
	}
}

// TestDownGateRefusalReadsDeadlineUnderLock: an RPC refused by the down gate
// formatted the deadline into its ErrDown after releasing the peer lock, so
// it raced every concurrent markDownLocked (a failed dial, a timeout, a lost
// session). The full soak caught it under -race; here one goroutine keeps
// re-entering the down state while another is refused. It fails only under
// -race.
func TestDownGateRefusalReadsDeadlineUnderLock(t *testing.T) {
	_, addr := startDaemon(t)
	c := NewClient(addr, WithWatchDisabled(), WithBackoff(time.Hour))
	defer c.Close()
	p := c.peers[0]
	markDown := func() {
		p.mu.Lock()
		p.markDownLocked()
		p.mu.Unlock()
	}
	markDown()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			markDown()
		}
	}()
	for fp := uint64(1); fp <= 50; fp++ {
		if _, _, err := c.ResolveFormat(fp); !errors.Is(err, ErrDown) {
			t.Fatalf("gated resolve returned %v, want ErrDown", err)
		}
	}
	<-done
}

// TestOnEventCallbackMayBlockWithoutStallingRPCs: event callbacks used to run
// on the watch connection's read pump, so a callback that blocked on a lock
// held by a caller waiting for an RPC response on that same connection was a
// deadlock — in the soak, a morpher's Invalidate (blocked on the decision
// lock) wedged the pump while the decision itself waited on a fresh opGet,
// and both sides timed out. Callbacks now run on a dispatcher goroutine: a
// blocked callback must not prevent a concurrent RPC on the same client from
// completing.
func TestOnEventCallbackMayBlockWithoutStallingRPCs(t *testing.T) {
	_, addr := startDaemon(t)
	c := NewClient(addr)
	defer c.Close()
	if err := c.Watch(); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	c.OnEvent(func(fp uint64) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	})

	pub := NewClient(addr)
	defer pub.Close()
	f := testFormat(t, "blocked", 1)
	if err := pub.Register(f); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("event callback never fired")
	}

	// The callback is parked mid-flight. A fresh resolve is a full RPC whose
	// response arrives on the pump the callback used to run on; with the old
	// synchronous dispatch this times out.
	if _, xs, err := c.Resolve(f.Fingerprint(), true); err != nil || len(xs) != 0 {
		t.Fatalf("RPC while callback blocked: %d transforms, err %v; want 0, nil", len(xs), err)
	}
}

// TestPutMergesStaleVintage: structural fingerprints collide across protocol
// generations, so clients legitimately hold different vintages of the same
// entry — in the soak, the broker's client was frozen at an early
// generation's 4-transform set (wire peers announce a format once) while the
// publisher's held the current 9. Reconvergence sweeps from both race on
// every failover, and with last-write-wins the stale sweep stomped the fresh
// entry at arbitrary times. The daemon must merge transform sets: a stale
// subset is a damped no-op (no event, no table change), a new destination is
// added, and a changed code for a known destination is replaced (newest
// wins).
func TestPutMergesStaleVintage(t *testing.T) {
	srv, addr := startDaemon(t)
	eventSeq := func() uint64 {
		srv.watchMu.Lock()
		defer srv.watchMu.Unlock()
		return srv.seq
	}

	fresh := NewClient(addr, WithWatchDisabled()) // stale-vintage publisher
	defer fresh.Close()
	pub := NewClient(addr, WithWatchDisabled())
	defer pub.Close()

	wide := testFormat(t, "ev", 2)
	v0 := testFormat(t, "ev", 0)
	v1 := testFormat(t, "ev", 1)
	x0 := &core.Xform{From: wide, To: v0, Code: "old.id = new.id; old.body = new.body;"}
	x1 := &core.Xform{From: wide, To: v1, Code: "old.id = new.id; old.body = new.body; old.x0 = new.x0;"}

	// Current generation registers the rich set; a stale vintage then
	// re-registers the subset it remembers.
	if err := pub.Register(wide, x0, x1); err != nil {
		t.Fatal(err)
	}
	seqAfterRich := eventSeq()
	if err := fresh.Register(wide, x0); err != nil {
		t.Fatal(err)
	}
	if xs := fresh.TransformsFor(wide.Fingerprint(), true); len(xs) != 2 {
		t.Fatalf("after stale re-register the daemon serves %d transforms, want the merged 2", len(xs))
	}
	// The subset put is also damped: no watch event means no invalidation
	// storm when reconvergence sweeps re-announce an entire published set.
	if got := eventSeq(); got != seqAfterRich {
		t.Fatalf("stale subset put advanced the event seq %d -> %d, want damped", seqAfterRich, got)
	}

	// Newest wins per destination: a changed code replaces, and does emit.
	x1b := &core.Xform{From: wide, To: v1, Code: "old.id = new.id; old.body = new.body; old.x0 = new.x0 * 2;"}
	if err := fresh.Register(wide, x1b); err != nil {
		t.Fatal(err)
	}
	if got := eventSeq(); got != seqAfterRich+1 {
		t.Fatalf("code-change put moved event seq %d -> %d, want exactly one new event", seqAfterRich, got)
	}
	xs := fresh.TransformsFor(wide.Fingerprint(), true)
	if len(xs) != 2 {
		t.Fatalf("after code change: %d transforms, want 2", len(xs))
	}
	for _, x := range xs {
		if x.To.Fingerprint() == v1.Fingerprint() && x.Code != x1b.Code {
			t.Fatalf("destination v1 still serves the old code %q", x.Code)
		}
	}
}
