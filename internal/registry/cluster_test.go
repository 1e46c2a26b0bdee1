package registry

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pbio"
)

// testCluster is an in-process peer set: every peer is a full Server +
// listener, with per-peer snapshot and cursor files, so a kill or restart
// behaves exactly like a daemon process dying or rebooting (remote peers
// observe connection loss and missed heartbeats either way).
type testCluster struct {
	t     *testing.T
	dir   string
	addrs []string
	srvs  []*Server
	lns   []net.Listener
	obses []*obs.Registry
}

const testHB = 25 * time.Millisecond

// newTestCluster reserves n loopback addresses and starts a peer on each.
func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:     t,
		dir:   t.TempDir(),
		srvs:  make([]*Server, n),
		lns:   make([]net.Listener, n),
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

// startPeer builds peer i's server on the given listener.
func (tc *testCluster) startPeer(i int, ln net.Listener) {
	tc.t.Helper()
	reg := obs.NewRegistry(fmt.Sprintf("peer%d", i))
	srv, err := NewServer(
		WithServerObs(reg),
		WithSnapshotPath(filepath.Join(tc.dir, fmt.Sprintf("peer%d.spool", i))),
		WithPeers(tc.addrs, i, testHB),
	)
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.srvs[i], tc.obses[i] = srv, reg
	go func() { _ = srv.Serve(ln) }()
}

// kill takes peer i down the way SIGKILL would: every connection it holds
// dies at once and its address stops accepting.
func (tc *testCluster) kill(i int) {
	tc.t.Helper()
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
	for i := range tc.srvs {
		tc.kill(i)
	}
}

// waitPrimary blocks until peer i claims the primary role.
func (tc *testCluster) waitPrimary(i int) {
	tc.t.Helper()
	waitFor(tc.t, fmt.Sprintf("peer %d primary", i), func() bool {
		return tc.srvs[i] != nil && tc.srvs[i].Role() == RolePrimary
	})
}

// waitStandbyOf blocks until peer i is a standby following primary pi.
func (tc *testCluster) waitStandbyOf(i, pi int) {
	tc.t.Helper()
	waitFor(tc.t, fmt.Sprintf("peer %d standby of %d", i, pi), following(tc.srvs[i], pi))
}

// following reports whether s is a standby of the primary at index pi.
func following(s *Server, pi int) func() bool {
	return func() bool {
		if s == nil {
			return false
		}
		s.replMu.Lock()
		defer s.replMu.Unlock()
		return s.role == RoleStandby && s.primaryIdx == pi
	}
}

// setRole fakes a role on a bare server, as an election would set it.
func setRole(s *Server, role byte, repl *replSession) {
	s.replMu.Lock()
	s.role, s.repl = role, repl
	s.replMu.Unlock()
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
	c := NewClient(tc.addrs[1], WithWatchDisabled())
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
	c := NewClient(tc.addrs[2], WithWatchDisabled())
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
	if tc.srvs[1].Role() != RolePrimary {
		t.Error("primary demoted by a rejoining lower-index peer")
	}
}

// TestClusterClientZeroFailedResolutionsDuringFailover is the failover
// acceptance scenario in miniature: continuous resolution traffic through a
// cluster client while the primary is killed — every resolution must be
// answered by some replica; none may fail.
func TestClusterClientZeroFailedResolutionsDuringFailover(t *testing.T) {
	tc := newTestCluster(t, 3)
	tc.waitPrimary(0)
	tc.waitStandbyOf(1, 0)
	tc.waitStandbyOf(2, 0)

	pub := NewClusterClient(tc.addrs, WithWatchDisabled())
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
	resolver := NewClusterClient(tc.addrs,
		WithWatchDisabled(),
		WithCacheSize(1),
		WithTimeout(300*time.Millisecond),
		WithBackoff(100*time.Millisecond),
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
// and attaching to the promoted one: not primary, no forward path. A write
// landing in that window used to be applied locally and acknowledged OK —
// stranding it on one peer, invisible to the eventual primary and everyone
// replicating from it. It must instead be refused as retryable with nothing
// applied, and start succeeding again the moment the window closes.
func TestElectionWindowWriteSurfacedRetryable(t *testing.T) {
	srv, addr := startDaemon(t)
	t.Cleanup(func() { _ = srv.Close() })

	// The election window: standby role, forward path detached.
	setRole(srv, RoleStandby, nil)
	c := NewClient(addr, WithWatchDisabled())
	defer c.Close()
	f := testFormat(t, "windowed", 1)
	if err := c.Register(f); !errors.Is(err, ErrRetryable) {
		t.Fatalf("register in the election window: err = %v, want ErrRetryable", err)
	}
	if srv.Len() != 0 {
		t.Fatalf("election-window write was applied locally (table len %d)", srv.Len())
	}

	// The other half of the window: a forward path whose link to the primary
	// is dead. Same contract — retryable, not applied.
	dead, err := dialRepl(addr, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = dead.Close()
	<-dead.Done()
	setRole(srv, RoleStandby, dead)
	if err := c.Register(f); !errors.Is(err, ErrRetryable) {
		t.Fatalf("register over a dead forward path: err = %v, want ErrRetryable", err)
	}
	if srv.Len() != 0 {
		t.Fatalf("dead-forward write was applied locally (table len %d)", srv.Len())
	}

	// Promotion closes the window: the primary applies locally and acks.
	setRole(srv, RolePrimary, nil)
	if err := c.Register(f); err != nil {
		t.Fatalf("register after promotion: %v", err)
	}
	if srv.Len() != 1 {
		t.Fatalf("post-promotion table len = %d, want 1", srv.Len())
	}

	// The boot window through the public constructor: index 1 of two, peer
	// 0 unreachable. Until the boot grace (failAfter heartbeats) expires the
	// server has no role, so a write is retryable and nothing is applied.
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := gone.Addr().String()
	_ = gone.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	booting, err := NewServer(WithPeers([]string{deadAddr, ln.Addr().String()}, 1, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = booting.Close(); _ = ln.Close() })
	go func() { _ = booting.Serve(ln) }()
	bc := NewClient(ln.Addr().String(), WithWatchDisabled())
	defer bc.Close()
	if err := bc.Register(testFormat(t, "booting", 2)); !errors.Is(err, ErrRetryable) {
		t.Fatalf("register in the boot window: err = %v, want ErrRetryable", err)
	}
	if booting.Len() != 0 {
		t.Fatalf("boot-window write was applied locally (table len %d)", booting.Len())
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
	w := NewClient(tc.addrs[2],
		WithWatchDisabled(),
		WithTimeout(300*time.Millisecond),
		WithBackoff(30*time.Millisecond),
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
// are bare servers with faked roles, so peer 1 replicates nothing. The
// accepting standby must re-forward the write to the new primary when it
// attaches; before it did, the acknowledged write lived on the accepting peer
// alone.
func TestStandbyReannouncesAckedWrites(t *testing.T) {
	lns := make([]net.Listener, 3)
	addrs := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	serve := func(i int, opts ...ServerOption) *Server {
		srv, err := NewServer(opts...)
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(lns[i]) }()
		t.Cleanup(func() { _ = srv.Close(); _ = lns[i].Close() })
		return srv
	}
	oldPrimary := serve(0) // a bare server is a primary from construction
	successor := serve(1)
	setRole(successor, RoleStandby, nil)
	srv := serve(2, WithPeers(addrs, 2, testHB))
	waitFor(t, "standby of peer 0", following(srv, 0))

	c := NewClient(addrs[2], WithWatchDisabled())
	defer c.Close()
	f := testFormat(t, "acked", 2)
	waitFor(t, "write acknowledged through the standby", func() bool { return c.Register(f) == nil })
	if _, err := oldPrimary.Resolve(f.Fingerprint()); err != nil {
		t.Fatalf("acknowledged write is not on the primary: %v", err)
	}

	_ = oldPrimary.Close()
	_ = lns[0].Close()
	successor.watchMu.Lock()
	successor.instance = newInstance() // a promotion's new incarnation
	successor.watchMu.Unlock()
	setRole(successor, RolePrimary, nil)
	waitFor(t, "standby of peer 1", following(srv, 1))
	waitFor(t, "acknowledged write on the new primary", func() bool {
		_, err := successor.Resolve(f.Fingerprint())
		return err == nil
	})
}

// TestReannounceCarriesWriteAckedMidFailover: a write the standby forwards
// is kept for re-announcing before the primary's acknowledgement arrives,
// so a re-announce to the successor that runs while that acknowledgement
// is in flight carries it. When the standby kept the write only once the
// acknowledgement had arrived, the re-announce went out without it, the
// client was told OK, and the successor never heard of the write.
func TestReannounceCarriesWriteAckedMidFailover(t *testing.T) {
	oldPrimary, oldAddr := serveBare(t)
	successor, succAddr := serveBare(t)
	// Everything the old primary says back is held until release closes.
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pln.Close()
	release := make(chan struct{})
	go func() {
		c, err := pln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		u, err := net.Dial("tcp", oldAddr)
		if err != nil {
			return
		}
		defer u.Close()
		go func() { _, _ = io.Copy(u, c) }()
		<-release
		_, _ = io.Copy(c, u)
	}()

	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.heartbeat = time.Second
	repl, err := dialRepl(pln.Addr().String(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	setRole(srv, RoleStandby, repl)

	f := testFormat(t, "midfailover", 1)
	acked := make(chan byte, 1)
	go func() {
		status, _ := srv.handlePut(encodeEntry(f, nil))
		acked <- status
	}()
	waitFor(t, "write applied by the old primary", func() bool {
		_, err := oldPrimary.Resolve(f.Fingerprint())
		return err == nil
	})
	// The failover runs while the acknowledgement is in flight.
	next, err := dialRepl(succAddr, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if err := srv.reannounce(next); err != nil {
		t.Fatal(err)
	}
	close(release)
	if status := <-acked; status != statusOK {
		t.Fatalf("the forwarded write was answered %d, want OK", status)
	}
	if _, err := successor.Resolve(f.Fingerprint()); err != nil {
		t.Fatalf("acknowledged write missing on the successor: %v", err)
	}
}

// TestReannounceRetriedAfterFailure: a standby whose re-announce to a new
// primary fails re-announces on its next attach to that primary. When the
// first attach already counted the primary as announced to, the retry
// skipped the re-announce and the writes it carried were lost to every
// peer but this one.
func TestReannounceRetriedAfterFailure(t *testing.T) {
	successor, succAddr := serveBare(t)
	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.heartbeat = time.Second
	f := testFormat(t, "announced", 1)
	srv.forwarded[f.Fingerprint()] = encodeEntry(f, nil)

	successor.watchMu.Lock()
	hi := helloInfo{role: RolePrimary, instance: successor.instance}
	successor.watchMu.Unlock()
	dead, err := dialRepl(succAddr, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = dead.Close()
	<-dead.Done()
	if srv.attach(dead, 1, hi, 0) {
		t.Fatal("attached over a dead session")
	}
	live, err := dialRepl(succAddr, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if !srv.attach(live, 1, hi, 0) {
		t.Fatal("second attach failed")
	}
	if _, err := successor.Resolve(f.Fingerprint()); err != nil {
		t.Fatalf("forwarded write missing on the primary after the retried attach: %v", err)
	}
}

// serveBare starts a bare server, a primary from construction, and returns
// it with its address.
func serveBare(t *testing.T) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close(); _ = ln.Close() })
	return srv, ln.Addr().String()
}

// TestStandbySnapshotRestartNoDoubleApply: a standby that restarts over its
// snapshot + replication cursor resumes the stream exactly where it left
// off — the old events are not replayed (cursor resume, not full resync)
// and nothing registered before, during, or after the restart is missing.
func TestStandbySnapshotRestartNoDoubleApply(t *testing.T) {
	tc := newTestCluster(t, 2)
	tc.waitPrimary(0)
	tc.waitStandbyOf(1, 0)

	pub := NewClient(tc.addrs[0], WithWatchDisabled())
	defer pub.Close()
	const before = 8
	for i := 0; i < before; i++ {
		if err := pub.Register(testFormat(t, fmt.Sprintf("pre%d", i), i%4)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "standby caught up pre-restart", func() bool {
		s := tc.srvs[1]
		s.replMu.Lock()
		lag := s.lagLocked()
		s.replMu.Unlock()
		return s.Len() == before && lag == 0
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
	// The table grows before applyEvent counts the apply, so wait for both.
	waitFor(t, "standby caught up post-restart", func() bool {
		return tc.srvs[1].Len() == before+during &&
			tc.obses[1].Counter("cluster.applied").Load() >= during
	})

	// The restarted peer applied exactly the events it missed: cursor
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

// TestParseHelloInfoVintages is the rolling-upgrade interop proof for the
// hello extension: every vintage of the payload a peer may meet parses to
// the right role.
func TestParseHelloInfoVintages(t *testing.T) {
	base := appendHello(nil, capWatch, 0x1122334455667788, 300)
	for _, tc := range []struct {
		name    string
		payload []byte
		role    byte
	}{
		{"pre-cluster (no extension)", base, RoleNone},
		{"role|index|shards", append(append([]byte(nil), base...), RoleStandby, 2, 4), RoleStandby},
		{"role only", append(append([]byte(nil), base...), RolePrimary), RolePrimary},
	} {
		hi, err := parseHelloInfo(tc.payload)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if hi.caps != capWatch || hi.instance != 0x1122334455667788 || hi.seq != 300 || hi.role != tc.role {
			t.Errorf("%s: parsed %+v, want caps %d instance 0x1122334455667788 seq 300 role %d",
				tc.name, hi, capWatch, tc.role)
		}
	}
}
