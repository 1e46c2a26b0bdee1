package registry

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestResolveFreshBypassesStaleCache is the regression test for the
// stale-LRU half of the fingerprint-reuse bug: fingerprints are structural,
// so a later protocol generation can reuse one, and its re-registration then
// replaces the daemon entry's transform set while resolvers keep serving
// their cached copy (the watch event that would refresh it can lose the race
// to — or, as here, not exist for — the data frame that needs it).
// Resolve(fp, true) must return the daemon's current entry and leave the
// LRU refreshed with it.
func TestResolveFreshBypassesStaleCache(t *testing.T) {
	_, addr := startDaemon(t)
	pub := NewClient(addr)
	defer pub.Close()
	// No watch stream: the subscriber's cache goes stale the way a live one
	// does when the event loses the race, just deterministically.
	sub := NewClient(addr, WithClientObs(obs.NewRegistry("sub")), WithWatchDisabled())
	defer sub.Close()

	wide := testFormat(t, "ev", 2)
	v0 := testFormat(t, "ev", 0)
	v1 := testFormat(t, "ev", 1)
	x0 := &core.Xform{From: wide, To: v0, Code: "old.id = new.id; old.body = new.body;"}
	x1 := &core.Xform{From: wide, To: v1, Code: "old.id = new.id; old.body = new.body; old.x0 = new.x0;"}

	if err := pub.Register(wide, x0); err != nil {
		t.Fatal(err)
	}
	if _, xs, err := sub.ResolveFormat(wide.Fingerprint()); err != nil || len(xs) != 1 {
		t.Fatalf("warm-up resolve: %d transforms, err %v; want 1, nil", len(xs), err)
	}

	// The "new generation" re-registers the same fingerprint with a richer
	// transform set: last write wins at the daemon.
	if err := pub.Register(wide, x0, x1); err != nil {
		t.Fatal(err)
	}

	// The cached read is honestly stale — that staleness is what makes the
	// fresh path load-bearing rather than redundant.
	if _, xs, err := sub.ResolveFormat(wide.Fingerprint()); err != nil || len(xs) != 1 {
		t.Fatalf("cached resolve after re-register: %d transforms, err %v; want the stale 1", len(xs), err)
	}
	if xs := sub.TransformsFor(wide.Fingerprint(), true); len(xs) != 2 {
		t.Fatalf("TransformsFor(fp, true) returned %d transforms, want the daemon's current 2", len(xs))
	}
	// And the fresh read repaired the cache: warm resolves now see it too.
	if _, xs, err := sub.ResolveFormat(wide.Fingerprint()); err != nil || len(xs) != 2 {
		t.Fatalf("cached resolve after fresh read: %d transforms, err %v; want 2, nil", len(xs), err)
	}
}

// TestClusterResolveFreshUnionsReplicas: which replica answers first must not
// decide whether a route exists. Two deliberately divergent daemons stand in
// for a primary and a lagging standby; the fresh cluster read must union
// their transform sets instead of returning the preferred replica's alone.
func TestClusterResolveFreshUnionsReplicas(t *testing.T) {
	_, addr0 := startDaemon(t)
	_, addr1 := startDaemon(t)

	wide := testFormat(t, "ev", 2)
	v0 := testFormat(t, "ev", 0)
	v1 := testFormat(t, "ev", 1)
	x0 := &core.Xform{From: wide, To: v0, Code: "old.id = new.id; old.body = new.body;"}
	x1 := &core.Xform{From: wide, To: v1, Code: "old.id = new.id; old.body = new.body; old.x0 = new.x0;"}

	d0 := NewClient(addr0)
	defer d0.Close()
	if err := d0.Register(wide, x0); err != nil {
		t.Fatal(err)
	}
	d1 := NewClient(addr1)
	defer d1.Close()
	if err := d1.Register(wide, x1); err != nil {
		t.Fatal(err)
	}

	cc := NewClusterClient([]string{addr0, addr1}, WithWatchDisabled())
	defer cc.Close()

	// The ordinary read is preferred-replica-first and sees only its answer.
	if _, xs, err := cc.ResolveFormat(wide.Fingerprint()); err != nil || len(xs) != 1 {
		t.Fatalf("cluster resolve: %d transforms, err %v; want the preferred replica's 1", len(xs), err)
	}
	_, xs, err := cc.Resolve(wide.Fingerprint(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 2 {
		t.Fatalf("fresh cluster resolve returned %d transforms, want the 2-replica union of 2", len(xs))
	}
	tos := map[uint64]bool{}
	for _, x := range xs {
		tos[x.To.Fingerprint()] = true
	}
	if !tos[v0.Fingerprint()] || !tos[v1.Fingerprint()] {
		t.Fatalf("union lost a destination: has %v", tos)
	}
}

// TestOnEventFiresAndRemoves: watch-event subscribers see every applied
// mutation's fingerprint, and a removed subscription stays silent — the
// contract echo subscribers rely on to invalidate morph decisions without
// leaking callbacks on a shared client.
func TestOnEventFiresAndRemoves(t *testing.T) {
	_, addr := startDaemon(t)
	c := NewClient(addr)
	defer c.Close()
	if err := c.Watch(); err != nil {
		t.Fatal(err)
	}
	got := make(chan uint64, 8)
	remove := c.OnEvent(func(fp uint64) { got <- fp })

	pub := NewClient(addr)
	defer pub.Close()
	f1 := testFormat(t, "hooked", 1)
	if err := pub.Register(f1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "watch-event callback", func() bool {
		select {
		case fp := <-got:
			return fp == f1.Fingerprint()
		default:
			return false
		}
	})

	remove()
	f2 := testFormat(t, "hooked", 2)
	if err := pub.Register(f2); err != nil {
		t.Fatal(err)
	}
	// The event has been applied once Holds sees it; a still-registered
	// callback would have fired before that became observable.
	waitFor(t, "second event applied", func() bool { return c.Holds(f2) })
	select {
	case fp := <-got:
		t.Fatalf("removed callback fired with %016x", fp)
	default:
	}
}
