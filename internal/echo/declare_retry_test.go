package echo

import (
	"net"
	"testing"
	"time"

	"repro/internal/registry"
)

// TestDeclareRidesOutElection is the regression test for the metadata
// blackhole a fleet soak flushed out: a publisher that Declares while its
// formatd cluster is mid-election (primary just died, standby not yet
// promoted) used to drop the retryable registration failure on the floor.
// The standbys are up, so the suppressor keeps eliding the in-band format
// frame — the declared transforms then exist nowhere, and every subscriber
// that needed them rejects the generation's messages. Declare must ride the
// election out: retry until a write path exists, before any data flows.
func TestDeclareRidesOutElection(t *testing.T) {
	const peers = 2
	lns := make([]net.Listener, peers)
	addrs := make([]string, peers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	srvs := make([]*registry.Server, peers)
	for i := range srvs {
		srv, err := registry.NewServer(registry.WithPeers(addrs, i, 10*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		ln := lns[i]
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close(); _ = ln.Close() })
	}
	waitFor(t, "peer 0 primary", func() bool {
		return srvs[0].Role() == registry.RolePrimary && srvs[1].Role() == registry.RoleStandby
	})

	serverRC := registry.NewClusterClient(addrs, 1,
		registry.WithTimeout(300*time.Millisecond), registry.WithBackoff(25*time.Millisecond))
	t.Cleanup(func() { _ = serverRC.Close() })
	_, addr := startDomain(t, WithRegistry(serverRC))
	pubRC := registry.NewClusterClient(addrs, 1,
		registry.WithTimeout(300*time.Millisecond), registry.WithBackoff(25*time.Millisecond))
	t.Cleanup(func() { _ = pubRC.Close() })
	pub, err := Open(addr, "q", Options{Source: true, Registry: pubRC})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// Kill the primary, then Declare immediately — square in the election
	// window, when the standby answers writes with "retry".
	_ = srvs[0].Close()
	_ = lns[0].Close()
	pub.Declare(regQuoteV2, regQuoteXform)

	// Declare returned, so the write must have landed: the survivor holds
	// the entry with its transform, daemon-side, no caches involved.
	probe := registry.NewClient(addrs[1])
	t.Cleanup(func() { _ = probe.Close() })
	_, xs, err := probe.Resolve(regQuoteV2.Fingerprint(), true)
	if err != nil {
		t.Fatalf("entry not on the survivor after Declare returned: %v", err)
	}
	if len(xs) != 1 || xs[0].To.Fingerprint() != regQuoteV1.Fingerprint() {
		t.Fatalf("survivor holds %d transforms, want the declared 1", len(xs))
	}
}
