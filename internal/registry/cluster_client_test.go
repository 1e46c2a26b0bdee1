package registry

import (
	"encoding/json"
	"errors"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestResubscribeArmsWithoutFirstSuccess is the regression test for the
// failover-boot gap: the resubscribe loop used to arm only after a first
// *successful* subscription, so a client that booted while the daemon was
// down (mid-failover in a cluster) never converged on its own — its first
// Watch failed on dial and nothing ever retried. Arming must happen on any
// subscription attempt.
func TestResubscribeArmsWithoutFirstSuccess(t *testing.T) {
	// Reserve an address with no daemon behind it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	reg := obs.NewRegistry("test")
	c := NewClient(addr, WithClientObs(reg), WithBackoff(20*time.Millisecond))
	defer c.Close()
	if err := c.Watch(); err == nil {
		t.Fatal("Watch against a dead address succeeded")
	}
	if c.WatchActive() {
		t.Fatal("watch reports active after a failed first subscription")
	}

	// The daemon comes up *after* the failed first attempt (the failover
	// completes). The client must subscribe on its own — no foreground RPC
	// nudges it.
	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var ln2 net.Listener
	waitFor(t, "rebinding the daemon address", func() bool {
		ln2, err = net.Listen("tcp", addr)
		return err == nil
	})
	go func() { _ = srv.Serve(ln2) }()

	waitFor(t, "self-armed resubscription", func() bool { return c.WatchActive() })

	// And it is a real subscription: a registration elsewhere reaches this
	// client as a pushed event.
	pub := NewClient(addr)
	defer pub.Close()
	f := testFormat(t, "lateboot", 1)
	if err := pub.Register(f); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "event delivery on the self-armed stream", func() bool { return c.Holds(f) })
}

// TestWatchRingDepth: the replay ring retains exactly its depth, and the
// capacity plus live occupancy surface in /debug/registryz.
func TestWatchRingDepth(t *testing.T) {
	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.ringCap = 4 // before any Put: nothing reads it concurrently yet
	for i := 0; i < 7; i++ {
		if err := srv.Put(testFormat(t, "ring", i)); err != nil {
			t.Fatal(err)
		}
	}
	rr := httptest.NewRequest("GET", RegistryzPath, nil)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, rr)
	var doc struct {
		WatchRingCap int    `json:"watch_ring_cap"`
		WatchRingLen int    `json:"watch_ring_len"`
		WatchSeq     uint64 `json:"watch_seq"`
	}
	if err := json.NewDecoder(w.Body).Decode(&doc); err != nil {
		t.Fatalf("registryz JSON: %v", err)
	}
	if doc.WatchRingCap != 4 {
		t.Errorf("watch_ring_cap = %d, want 4", doc.WatchRingCap)
	}
	if doc.WatchRingLen != 4 {
		t.Errorf("watch_ring_len = %d after 7 puts into a 4-ring, want 4", doc.WatchRingLen)
	}
	if doc.WatchSeq != 7 {
		t.Errorf("watch_seq = %d, want 7", doc.WatchSeq)
	}
}

// TestReregisterOnInstanceChange: a client whose watch stream reattaches to
// a *different* daemon incarnation (restart with an empty table here; a
// promoted standby in a cluster) must re-announce everything it published —
// the dead incarnation may have acknowledged writes nobody else ever saw.
func TestReregisterOnInstanceChange(t *testing.T) {
	srv1, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	go func() { _ = srv1.Serve(ln1) }()

	reg := obs.NewRegistry("test")
	c := NewClient(addr, WithClientObs(reg), WithBackoff(20*time.Millisecond))
	defer c.Close()
	if err := c.Watch(); err != nil {
		t.Fatal(err)
	}
	f := testFormat(t, "survivor", 2)
	if err := c.Register(f); err != nil {
		t.Fatal(err)
	}

	// The daemon dies taking its table with it; a fresh, empty incarnation
	// appears on the same address.
	_ = srv1.Close()
	srv2, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	var ln2 net.Listener
	waitFor(t, "rebinding the daemon address", func() bool {
		ln2, err = net.Listen("tcp", addr)
		return err == nil
	})
	go func() { _ = srv2.Serve(ln2) }()

	// The client reattaches, notices the instance change, and re-registers
	// its published formats without any help.
	waitFor(t, "re-registration on the new incarnation", func() bool {
		_, err := srv2.Resolve(f.Fingerprint())
		return err == nil
	})
	// The counter ticks after the Register the daemon just answered returns.
	waitFor(t, "registry.reregisters to count it (else the entry arrived some other way)", func() bool {
		return reg.Counter("registry.reregisters").Load() != 0
	})
}

// TestClusterClientRoutingAndReadRepair: reads go to the preferred replica
// (peer 0), fail over to the rest, and repair the preferred replica's cache;
// unknown fingerprints are only believed when every replica agrees.
func TestClusterClientRoutingAndReadRepair(t *testing.T) {
	srvA, addrA := startDaemon(t)
	srvB, addrB := startDaemon(t)
	defer srvA.Close()
	defer srvB.Close()

	f := testFormat(t, "routed", 1)
	// Only B holds the entry, so resolution must succeed by failing over
	// (replicas normally converge; this asymmetry isolates the failover path).
	if err := srvB.Put(f); err != nil {
		t.Fatal(err)
	}

	cc := NewClusterClient([]string{addrA, addrB}, WithWatchDisabled(), WithNegTTL(50*time.Millisecond))
	defer cc.Close()
	rf, _, err := cc.ResolveFormat(f.Fingerprint())
	if err != nil || rf.Fingerprint() != f.Fingerprint() {
		t.Fatalf("cluster resolve: %v", err)
	}
	// Read repair: the preferred peer now holds the entry in its LRU, so a
	// repeat resolve is a local hit on A.
	pref := cc.peers[0]
	if !pref.cache.holds(f.Fingerprint()) {
		t.Error("preferred replica's LRU not repaired after a failover answer")
	}
	// And that hit costs what a single client's does: nothing.
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := cc.ResolveFormat(f.Fingerprint()); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("cluster-client cache hit allocates %.1f times per call, want 0", allocs)
	}

	// A fingerprint nobody holds: unknown only after every replica said so.
	if _, _, err := cc.ResolveFormat(0xdeadbeef); !errors.Is(err, ErrUnknownFingerprint) {
		t.Fatalf("err = %v, want ErrUnknownFingerprint", err)
	}
}

// TestClusterClientPeerHealth pins the multi-peer health rules: the client
// is down only when every peer is, and Holds for a published fingerprint
// follows the health of the peer that acknowledged it — through a failover
// that moves the acknowledgment to a survivor.
func TestClusterClientPeerHealth(t *testing.T) {
	srv0, addr0 := startDaemon(t)
	srv1, addr1 := startDaemon(t)
	cc := NewClusterClient([]string{addr0, addr1}, WithBackoff(time.Hour))
	defer cc.Close()

	// Peer 0 is preferred, so it acknowledges the registration.
	f := testFormat(t, "healthy", 1)
	if err := cc.Register(f); err != nil {
		t.Fatal(err)
	}
	if !cc.Holds(f) {
		t.Fatal("Holds false right after an acknowledged Register")
	}

	// The acknowledging peer dies; reconvergence re-registers f on the
	// survivor, which can only happen once peer 0 was marked down.
	_ = srv0.Close()
	waitFor(t, "re-registration on the surviving daemon", func() bool { return srv1.Len() == 1 })
	if cc.Down() {
		t.Error("Down with one peer still reachable")
	}
	waitFor(t, "Holds through the survivor's acknowledgment", func() bool { return cc.Holds(f) })

	_ = srv1.Close()
	waitFor(t, "every peer down", cc.Down)
	if cc.Holds(f) {
		t.Error("Holds true with every peer down")
	}
	if cc.WatchActive() {
		t.Error("WatchActive with every peer down")
	}
}
