package cluster

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/registry"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func testFormat(t *testing.T, name string, extra int) *pbio.Format {
	t.Helper()
	fields := []pbio.Field{
		{Name: "id", Kind: pbio.Integer, Size: 4},
		{Name: "body", Kind: pbio.String},
	}
	for i := 0; i < extra; i++ {
		fields = append(fields, pbio.Field{Name: fmt.Sprintf("x%d", i), Kind: pbio.Integer, Size: 4})
	}
	f, err := pbio.NewFormat(name, fields)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// testCluster is an in-process peer set: every peer is a full Server +
// listener + Node, with per-peer snapshot and cursor files, so a kill or
// restart behaves exactly like a daemon process dying or rebooting (remote
// peers observe connection loss and missed heartbeats either way).
type testCluster struct {
	t     *testing.T
	dir   string
	addrs []string
	srvs  []*registry.Server
	lns   []net.Listener
	nodes []*Node
	obses []*obs.Registry
}

const (
	testHB        = 25 * time.Millisecond
	testFailAfter = 3
)

// newTestCluster reserves n loopback addresses and starts a node on each.
func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:     t,
		dir:   t.TempDir(),
		srvs:  make([]*registry.Server, n),
		lns:   make([]net.Listener, n),
		nodes: make([]*Node, n),
		obses: make([]*obs.Registry, n),
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tc.lns[i] = ln
		tc.addrs = append(tc.addrs, ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		tc.startPeer(i, tc.lns[i])
	}
	t.Cleanup(tc.closeAll)
	return tc
}

func (tc *testCluster) snapshotPath(i int) string {
	return filepath.Join(tc.dir, fmt.Sprintf("peer%d.spool", i))
}

// startPeer builds server + node for peer i on the given listener.
func (tc *testCluster) startPeer(i int, ln net.Listener) {
	tc.t.Helper()
	reg := obs.NewRegistry(fmt.Sprintf("peer%d", i))
	srv, err := registry.NewServer(
		registry.WithServerObs(reg),
		registry.WithSnapshotPath(tc.snapshotPath(i)),
	)
	if err != nil {
		tc.t.Fatal(err)
	}
	node, err := New(srv, Config{
		Index:     i,
		Peers:     tc.addrs,
		Shards:    4,
		Cursor:    tc.snapshotPath(i) + ".cursor",
		Heartbeat: testHB,
		FailAfter: testFailAfter,
		Obs:       reg,
		Logf:      tc.t.Logf,
	})
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.srvs[i], tc.nodes[i], tc.obses[i] = srv, node, reg
	go func() { _ = srv.Serve(ln) }()
	node.Start()
}

// kill takes peer i down the way SIGKILL would: every connection it holds
// dies at once and its address stops accepting.
func (tc *testCluster) kill(i int) {
	tc.t.Helper()
	if tc.nodes[i] != nil {
		tc.nodes[i].Close()
		tc.nodes[i] = nil
	}
	if tc.srvs[i] != nil {
		_ = tc.srvs[i].Close()
		tc.srvs[i] = nil
	}
	if tc.lns[i] != nil {
		_ = tc.lns[i].Close()
		tc.lns[i] = nil
	}
}

// restart brings peer i back on its old address over its surviving snapshot
// and cursor files.
func (tc *testCluster) restart(i int) {
	tc.t.Helper()
	var ln net.Listener
	waitFor(tc.t, "rebinding peer address", func() bool {
		var err error
		ln, err = net.Listen("tcp", tc.addrs[i])
		return err == nil
	})
	tc.lns[i] = ln
	tc.startPeer(i, ln)
}

func (tc *testCluster) closeAll() {
	for i := range tc.nodes {
		tc.kill(i)
	}
}

// waitPrimary blocks until peer i claims the primary role.
func (tc *testCluster) waitPrimary(i int) {
	tc.t.Helper()
	waitFor(tc.t, fmt.Sprintf("peer %d primary", i), func() bool {
		return tc.nodes[i] != nil && tc.nodes[i].Role() == registry.RolePrimary
	})
}

// waitStandbyOf blocks until peer i is a standby following primary pi.
func (tc *testCluster) waitStandbyOf(i, pi int) {
	tc.t.Helper()
	waitFor(tc.t, fmt.Sprintf("peer %d standby of %d", i, pi), func() bool {
		n := tc.nodes[i]
		if n == nil || n.Role() != registry.RoleStandby {
			return false
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.primaryIdx == pi
	})
}

// TestClusterReplicationAndForwarding: peer 0 wins the cold-start election,
// a write landing on a *standby* is forwarded to the primary, applied
// locally, and replicated to the third peer — every table converges.
func TestClusterReplicationAndForwarding(t *testing.T) {
	tc := newTestCluster(t, 3)
	tc.waitPrimary(0)
	tc.waitStandbyOf(1, 0)
	tc.waitStandbyOf(2, 0)

	// Register through standby 1 — the write authority is peer 0.
	c := registry.NewClient(tc.addrs[1], registry.WithWatchDisabled())
	defer c.Close()
	f := testFormat(t, "forwarded", 1)
	if err := c.Register(f); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes on the accepting standby, synchronously.
	if _, err := tc.srvs[1].Resolve(f.Fingerprint()); err != nil {
		t.Fatalf("accepting standby does not hold the entry: %v", err)
	}
	// The primary holds it (the forward), and replication carries it to the
	// peer that never saw the write.
	if _, err := tc.srvs[0].Resolve(f.Fingerprint()); err != nil {
		t.Fatalf("primary does not hold the forwarded entry: %v", err)
	}
	waitFor(t, "replication to the third peer", func() bool {
		_, err := tc.srvs[2].Resolve(f.Fingerprint())
		return err == nil
	})

	// Echo damping: the standby applied the write locally AND receives the
	// primary's event for it. Whichever lands second is a byte-identical
	// no-op, so the single registration stays a single primary-stream event
	// — no ping-pong amplification.
	time.Sleep(5 * testHB)
	if got := tc.srvs[0].WatchSeq(); got != 1 {
		t.Errorf("primary stream seq = %d after one registration, want 1 (echo not damped)", got)
	}
	applied := tc.obses[1].Counter("cluster.applied").Load()
	damped := tc.obses[1].Counter("cluster.damped").Load()
	if applied+damped != 1 {
		t.Errorf("standby applied=%d damped=%d, want exactly one delivery", applied, damped)
	}
}

// TestFailoverPromotesDeterministicSuccessor: killing the primary promotes
// the lowest live index, the remaining standby re-follows the new primary,
// and a rebooted ex-primary rejoins as a standby instead of stealing the
// role back.
func TestFailoverPromotesDeterministicSuccessor(t *testing.T) {
	tc := newTestCluster(t, 3)
	tc.waitPrimary(0)
	tc.waitStandbyOf(1, 0)
	tc.waitStandbyOf(2, 0)

	tc.kill(0)
	tc.waitPrimary(1)
	tc.waitStandbyOf(2, 1)
	if got := tc.obses[1].Counter("cluster.promotions").Load(); got != 1 {
		t.Errorf("promotions = %d, want 1", got)
	}

	// Writes flow through the new primary.
	c := registry.NewClient(tc.addrs[2], registry.WithWatchDisabled())
	defer c.Close()
	f := testFormat(t, "postfailover", 2)
	if err := c.Register(f); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.srvs[1].Resolve(f.Fingerprint()); err != nil {
		t.Fatalf("new primary does not hold the post-failover write: %v", err)
	}

	// The old primary reboots: a claimed primary always wins, so it joins
	// as a standby and replicates the post-failover write it missed.
	tc.restart(0)
	tc.waitStandbyOf(0, 1)
	waitFor(t, "rejoined ex-primary catching up", func() bool {
		_, err := tc.srvs[0].Resolve(f.Fingerprint())
		return err == nil
	})
	if tc.nodes[1].Role() != registry.RolePrimary {
		t.Error("primary demoted by a rejoining lower-index peer")
	}
}

// TestClusterClientZeroFailedResolutionsDuringFailover is the tentpole's
// acceptance scenario in miniature: continuous resolution traffic through a
// cluster client while the primary is killed — every resolution must be
// answered by some replica; none may fail.
func TestClusterClientZeroFailedResolutionsDuringFailover(t *testing.T) {
	tc := newTestCluster(t, 3)
	tc.waitPrimary(0)
	tc.waitStandbyOf(1, 0)
	tc.waitStandbyOf(2, 0)

	pub := registry.NewClusterClient(tc.addrs, 4, registry.WithWatchDisabled())
	defer pub.Close()
	const nFormats = 16
	fps := make([]uint64, 0, nFormats)
	for i := 0; i < nFormats; i++ {
		f := testFormat(t, fmt.Sprintf("load%d", i), i%5)
		if err := pub.Register(f); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, f.Fingerprint())
	}
	for i := 0; i < 3; i++ {
		i := i
		waitFor(t, fmt.Sprintf("full replication to peer %d", i), func() bool {
			return tc.srvs[i] != nil && tc.srvs[i].Len() == nFormats
		})
	}

	// The resolver has a one-entry cache, so every resolution is a real
	// round-trip to some replica — no hiding behind the LRU.
	resolver := registry.NewClusterClient(tc.addrs, 4,
		registry.WithWatchDisabled(),
		registry.WithCacheSize(1),
		registry.WithTimeout(300*time.Millisecond),
		registry.WithBackoff(100*time.Millisecond),
	)
	defer resolver.Close()

	stop := make(chan struct{})
	type tally struct{ resolved, failed int }
	done := make(chan tally, 1)
	go func() {
		var tl tally
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- tl
				return
			default:
			}
			if _, _, err := resolver.ResolveFormat(fps[i%len(fps)]); err != nil {
				tl.failed++
				t.Logf("failed resolution: %v", err)
			} else {
				tl.resolved++
			}
		}
	}()

	time.Sleep(5 * testHB) // let traffic establish against the healthy cluster
	tc.kill(0)
	tc.waitPrimary(1)
	time.Sleep(5 * testHB) // keep resolving well past the promotion
	close(stop)
	tl := <-done
	if tl.failed != 0 {
		t.Errorf("%d failed resolutions across the failover (%d ok)", tl.failed, tl.resolved)
	}
	if tl.resolved == 0 {
		t.Fatal("the load loop never resolved anything; the test proved nothing")
	}
}

// TestElectionWindowWriteSurfacedRetryable pins the write contract for the
// state every standby passes through between detaching from a dead primary
// and attaching to the promoted one: clustered, standby role, no forward
// path. A write landing in that window used to be applied locally and
// acknowledged OK — stranding it on one peer, invisible to the eventual
// primary and everyone replicating from it. It must instead be refused as
// retryable with nothing applied, and start succeeding again the moment the
// window closes.
func TestElectionWindowWriteSurfacedRetryable(t *testing.T) {
	srv, err := registry.NewServer()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close(); _ = ln.Close() })

	// The election window: cluster member, not primary, forwarder detached.
	srv.SetClustered(true)
	srv.SetHelloInfo(registry.RoleStandby, 1, 4)

	c := registry.NewClient(ln.Addr().String(), registry.WithWatchDisabled())
	defer c.Close()
	f := testFormat(t, "windowed", 1)
	if err := c.Register(f); !errors.Is(err, registry.ErrRetryable) {
		t.Fatalf("register in the election window: err = %v, want ErrRetryable", err)
	}
	if srv.Len() != 0 {
		t.Fatalf("election-window write was applied locally (table len %d)", srv.Len())
	}

	// The other half of the window: a forwarder whose path to the primary is
	// dead. Same contract — retryable, not applied.
	srv.SetWriteForwarder(func(uint64, []byte) error { return fmt.Errorf("connection refused") })
	if err := c.Register(f); !errors.Is(err, registry.ErrRetryable) {
		t.Fatalf("register over a dead forward path: err = %v, want ErrRetryable", err)
	}
	if srv.Len() != 0 {
		t.Fatalf("dead-forward write was applied locally (table len %d)", srv.Len())
	}

	// Promotion closes the window: the primary applies locally and acks.
	srv.SetWriteForwarder(nil)
	srv.SetHelloInfo(registry.RolePrimary, 1, 4)
	if err := c.Register(f); err != nil {
		t.Fatalf("register after promotion: %v", err)
	}
	if srv.Len() != 1 {
		t.Fatalf("post-promotion table len = %d, want 1", srv.Len())
	}

	// And leaving the cluster restores standalone behavior even as a standby
	// hello-role leftover.
	srv.SetClustered(false)
	srv.SetHelloInfo(registry.RoleStandby, 1, 4)
	if err := c.Register(testFormat(t, "standalone", 2)); err != nil {
		t.Fatalf("standalone register: %v", err)
	}
}

// TestElectionDuringWrite drives a continuous write stream through a standby
// while the primary is killed: every acknowledged write must be durable on
// the promoted primary afterwards. With the silent local-apply bug, a write
// hitting the standby's detached window was acked OK yet never forwarded —
// it existed only on the accepting peer and this assertion fails.
func TestElectionDuringWrite(t *testing.T) {
	tc := newTestCluster(t, 3)
	tc.waitPrimary(0)
	tc.waitStandbyOf(1, 0)
	tc.waitStandbyOf(2, 0)

	// All writes enter at peer 2, which stays a standby across the failover,
	// so every write exercises the forwarding path before and after — and the
	// detached window in between.
	w := registry.NewClient(tc.addrs[2],
		registry.WithWatchDisabled(),
		registry.WithTimeout(300*time.Millisecond),
		registry.WithBackoff(30*time.Millisecond),
	)
	defer w.Close()

	stop := make(chan struct{})
	var mu sync.Mutex
	var acked []*pbio.Format
	retried := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f := testFormat(t, fmt.Sprintf("elect%d", i), i%6)
			for { // retry this one format until it is acknowledged
				err := w.Register(f)
				if err == nil {
					break
				}
				mu.Lock()
				retried++
				mu.Unlock()
				select {
				case <-stop:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
			mu.Lock()
			acked = append(acked, f)
			mu.Unlock()
		}
	}()

	time.Sleep(4 * testHB) // establish the stream against the healthy cluster
	tc.kill(0)
	tc.waitPrimary(1)
	tc.waitStandbyOf(2, 1)
	time.Sleep(4 * testHB) // acks must flow again after the promotion
	close(stop)
	<-done

	mu.Lock()
	defer mu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no write was ever acknowledged; the test proved nothing")
	}
	t.Logf("%d writes acked, %d retries across the failover", len(acked), retried)
	for _, f := range acked {
		f := f
		waitFor(t, fmt.Sprintf("acked %q durable on the new primary", f.Name()), func() bool {
			_, err := tc.srvs[1].Resolve(f.Fingerprint())
			return err == nil
		})
	}
	// Applied-once: replication damping means re-sent writes are no-ops, so
	// the surviving tables converge to exactly the acked set (the writer may
	// have abandoned at most its final, unacked format mid-retry).
	waitFor(t, "surviving peers converged", func() bool {
		return tc.srvs[2].Len() >= len(acked) && tc.srvs[1].Len() == tc.srvs[2].Len()
	})
	if extra := tc.srvs[1].Len() - len(acked); extra > 1 {
		t.Errorf("%d unacked formats applied (table %d vs %d acked)", extra, tc.srvs[1].Len(), len(acked))
	}
}

// TestStandbyReannouncesAckedWrites is the deterministic core of
// TestElectionDuringWrite. Replication is asynchronous, so a write a standby
// accepted and its primary acknowledged may never have reached the peer that
// is promoted when that primary dies — here by construction: peers 0 and 1
// are bare servers, so peer 1 replicates nothing. The accepting standby must
// re-forward the write to the new primary when it attaches; before it did,
// the acknowledged write lived on the accepting peer alone.
func TestStandbyReannouncesAckedWrites(t *testing.T) {
	serve := func() (*registry.Server, net.Listener) {
		srv, err := registry.NewServer()
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close(); _ = ln.Close() })
		return srv, ln
	}
	oldPrimary, ln0 := serve()
	oldPrimary.SetHelloInfo(registry.RolePrimary, 0, 4)
	successor, ln1 := serve()
	successor.SetHelloInfo(registry.RoleStandby, 1, 4)
	srv, ln2 := serve()
	node, err := New(srv, Config{
		Index:     2,
		Peers:     []string{ln0.Addr().String(), ln1.Addr().String(), ln2.Addr().String()},
		Shards:    4,
		Heartbeat: testHB,
		FailAfter: testFailAfter,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	t.Cleanup(node.Close)
	following := func(pi int) func() bool {
		return func() bool {
			node.mu.Lock()
			defer node.mu.Unlock()
			return node.role == registry.RoleStandby && node.primaryIdx == pi
		}
	}
	waitFor(t, "standby of peer 0", following(0))

	c := registry.NewClient(ln2.Addr().String(), registry.WithWatchDisabled())
	defer c.Close()
	f := testFormat(t, "acked", 2)
	waitFor(t, "write acknowledged through the standby", func() bool { return c.Register(f) == nil })
	if _, err := oldPrimary.Resolve(f.Fingerprint()); err != nil {
		t.Fatalf("acknowledged write is not on the primary: %v", err)
	}

	_ = oldPrimary.Close()
	_ = ln0.Close()
	successor.BumpInstance()
	successor.SetHelloInfo(registry.RolePrimary, 1, 4)
	waitFor(t, "standby of peer 1", following(1))
	waitFor(t, "acknowledged write on the new primary", func() bool {
		_, err := successor.Resolve(f.Fingerprint())
		return err == nil
	})
}

// TestStandbySnapshotRestartNoDoubleApply: a standby that restarts over its
// snapshot + replication cursor resumes the stream exactly where it left
// off — the old events are not replayed (cursor resume, not full resync)
// and nothing registered before, during, or after the restart is missing.
func TestStandbySnapshotRestartNoDoubleApply(t *testing.T) {
	tc := newTestCluster(t, 2)
	tc.waitPrimary(0)
	tc.waitStandbyOf(1, 0)

	pub := registry.NewClient(tc.addrs[0], registry.WithWatchDisabled())
	defer pub.Close()
	const before = 8
	for i := 0; i < before; i++ {
		if err := pub.Register(testFormat(t, fmt.Sprintf("pre%d", i), i%4)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "standby caught up pre-restart", func() bool {
		return tc.srvs[1].Len() == before && tc.nodes[1].ReplLag() == 0
	})

	// Bounce the standby. Its snapshot holds the table, its cursor the
	// (primary instance, last applied seqno) pair.
	tc.kill(1)
	// Mutations continue while the standby is down.
	const during = 4
	for i := 0; i < during; i++ {
		if err := pub.Register(testFormat(t, fmt.Sprintf("mid%d", i), i%3)); err != nil {
			t.Fatal(err)
		}
	}
	tc.restart(1)
	tc.waitStandbyOf(1, 0)
	waitFor(t, "standby caught up post-restart", func() bool {
		return tc.srvs[1].Len() == before+during
	})

	// The restarted node applied exactly the events it missed: cursor
	// resume replayed nothing it already had (applied == during) and no
	// full resync re-pushed the old table (damped == 0 — every damped apply
	// would be a double-delivery).
	if got := tc.obses[1].Counter("cluster.applied").Load(); got != during {
		t.Errorf("applied = %d after restart, want exactly the %d missed events", got, during)
	}
	if got := tc.obses[1].Counter("cluster.damped").Load(); got != 0 {
		t.Errorf("damped = %d after restart, want 0 (cursor resume must not re-deliver)", got)
	}

	// And the stream stays live: a fresh registration still replicates.
	f := testFormat(t, "post", 2)
	if err := pub.Register(f); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-restart replication", func() bool {
		_, err := tc.srvs[1].Resolve(f.Fingerprint())
		return err == nil
	})
}
