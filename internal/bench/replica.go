package bench

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/registry"
)

// The replica experiment prices the clustered metadata plane
// (internal/cluster + registry cluster clients) at the three points the
// tentpole claims matter:
//
//   - failover blackout: with continuous resolve traffic against a 3-peer
//     cluster, kill the primary. Reads must keep flowing (standbys serve
//     them); the blackout is the longest gap between two successful
//     resolutions, and failed_resolutions must be zero. Writes ride out the
//     election through client retries (register_retries) and their
//     visibility lag is staleness_max_ns.
//   - standby propagation lag: how long after a write is acknowledged by
//     the primary before a standby serves it (the replication stream's
//     end-to-end latency, sampled per write).
//   - sharded resolve throughput: cold-resolution throughput through the
//     cluster client (reads spread across 3 replicas by fingerprint shard)
//     vs the same load against a single daemon — plus the warm LRU hit,
//     which must stay allocation-free in cluster mode.

// ReplicaResult is the experiment's JSON document (morphbench -out).
type ReplicaResult struct {
	Peers  int `json:"peers"`
	Shards int `json:"shards"`

	Resolutions       int64 `json:"resolutions"`
	FailedResolutions int64 `json:"failed_resolutions"`
	Registers         int64 `json:"registers"`
	RegisterRetries   int64 `json:"register_retries"`

	BlackoutNS     int64 `json:"blackout_ns"`
	StalenessMaxNS int64 `json:"staleness_max_ns"`

	StandbyLagP50NS int64 `json:"standby_lag_p50_ns"`
	StandbyLagP95NS int64 `json:"standby_lag_p95_ns"`

	ClusterResolvesPerSec float64 `json:"cluster_resolves_per_sec"`
	SingleResolvesPerSec  float64 `json:"single_resolves_per_sec"`
	ResolveSpeedupX       float64 `json:"resolve_speedup_x"`

	HitNS     int64   `json:"hit_ns_per_op"`
	HitAllocs float64 `json:"hit_allocs_per_op"`
}

// replicaPeer is one in-process cluster member: a full Server + listener +
// Node, so killing it severs every connection the way a dead process would.
type replicaPeer struct {
	srv  *registry.Server
	ln   net.Listener
	node *cluster.Node
}

func (p *replicaPeer) kill() {
	if p.node != nil {
		p.node.Close()
		p.node = nil
	}
	if p.srv != nil {
		_ = p.srv.Close()
		p.srv = nil
	}
	if p.ln != nil {
		_ = p.ln.Close()
		p.ln = nil
	}
}

// startReplicaCluster brings up an n-peer cluster on loopback listeners and
// waits until peer 0 is primary and every other peer follows it.
func startReplicaCluster(n, shards int, hb time.Duration) ([]*replicaPeer, []string, error) {
	peers := make([]*replicaPeer, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		peers[i] = &replicaPeer{ln: ln}
		addrs[i] = ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		srv, err := registry.NewServer()
		if err != nil {
			return nil, nil, err
		}
		node, err := cluster.New(srv, cluster.Config{
			Index:     i,
			Peers:     addrs,
			Shards:    shards,
			Heartbeat: hb,
			FailAfter: 3,
			Obs:       obs.NewRegistry(fmt.Sprintf("replica%d", i)),
		})
		if err != nil {
			return nil, nil, err
		}
		peers[i].srv, peers[i].node = srv, node
		ln := peers[i].ln
		go func() { _ = srv.Serve(ln) }()
		node.Start()
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		settled := peers[0].node.Role() == registry.RolePrimary
		for _, p := range peers[1:] {
			settled = settled && p.node.Role() == registry.RoleStandby
		}
		if settled {
			return peers, addrs, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil, nil, fmt.Errorf("replica: cluster never settled")
}

// ReplicaSweep runs the full experiment against an in-process 3-peer
// cluster. Killing the primary here closes its listener and every
// connection at once — indistinguishable, to the surviving peers and
// clients, from SIGKILL (check.sh additionally runs the real-process
// variant through ExternalReplicaRun).
func (h *Harness) ReplicaSweep(quick bool) (ReplicaResult, error) {
	const nPeers, shards = 3, 4
	hb := 50 * time.Millisecond
	loadFor := 1500 * time.Millisecond
	nFormats, nLagSamples := 64, 32
	if quick {
		loadFor = 600 * time.Millisecond
		nFormats, nLagSamples = 32, 16
	}
	res := ReplicaResult{Peers: nPeers, Shards: shards}

	peers, addrs, err := startReplicaCluster(nPeers, shards, hb)
	if err != nil {
		return res, err
	}
	defer func() {
		for _, p := range peers {
			p.kill()
		}
	}()

	// Standby propagation lag: register at the primary, stamp the ack, and
	// poll a standby's table until the entry lands.
	pub := registry.NewClient(addrs[0], registry.WithWatchDisabled())
	defer pub.Close()
	lagFormats, err := replicaFormats("replica_lag", nLagSamples)
	if err != nil {
		return res, err
	}
	lags := make([]time.Duration, 0, nLagSamples)
	for _, f := range lagFormats {
		if err := pub.Register(f); err != nil {
			return res, err
		}
		acked := time.Now()
		for {
			if _, err := peers[2].srv.Resolve(f.Fingerprint()); err == nil {
				break
			}
			if time.Since(acked) > 5*time.Second {
				return res, fmt.Errorf("replica: standby never saw %s", f.Name())
			}
			time.Sleep(50 * time.Microsecond)
		}
		lags = append(lags, time.Since(acked))
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	res.StandbyLagP50NS = lags[len(lags)/2].Nanoseconds()
	res.StandbyLagP95NS = lags[len(lags)*95/100].Nanoseconds()

	// Failover under live load.
	loadFormats, err := replicaFormats("replica_load", nFormats)
	if err != nil {
		return res, err
	}
	for _, f := range loadFormats {
		if err := pub.Register(f); err != nil {
			return res, err
		}
	}
	// Wait for full replication so a standby can answer anything.
	for _, p := range peers[1:] {
		for p.srv.Len() < nFormats+nLagSamples {
			time.Sleep(time.Millisecond)
		}
	}

	killPrimary := func() {
		peers[0].kill()
	}
	waitPromoted := func() error {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if peers[1].node.Role() == registry.RolePrimary {
				return nil
			}
			time.Sleep(2 * time.Millisecond)
		}
		return fmt.Errorf("replica: successor never promoted")
	}
	fr, err := replicaFailoverLoad(addrs, shards, loadFormats, loadFor, killPrimary, waitPromoted)
	if err != nil {
		return res, err
	}
	res.Resolutions = fr.resolutions
	res.FailedResolutions = fr.failed
	res.Registers = fr.registers
	res.RegisterRetries = fr.retries
	res.BlackoutNS = fr.blackoutNS
	res.StalenessMaxNS = fr.stalenessMaxNS

	// Sharded resolve throughput vs a single daemon (fresh, healthy
	// deployments of each; the failover cluster above lost a peer).
	if err := h.replicaThroughput(&res, quick); err != nil {
		return res, err
	}
	return res, nil
}

// replicaFormat builds one structurally distinct format. The name is part
// of the fingerprint, so sets built under different names never collide in
// the daemon's table.
func replicaFormat(name string, i int) (*pbio.Format, error) {
	fields := []pbio.Field{
		{Name: "timestamp", Kind: pbio.Unsigned, Size: 8},
		{Name: "seq", Kind: pbio.Unsigned, Size: 8},
	}
	for j := 0; j <= i%5; j++ {
		fields = append(fields, pbio.Field{Name: fmt.Sprintf("v%d", j), Kind: pbio.Float, Size: 8})
	}
	return pbio.NewFormat(name, fields)
}

// replicaFormats builds the n formats prefix_0 … prefix_(n-1).
func replicaFormats(prefix string, n int) ([]*pbio.Format, error) {
	out := make([]*pbio.Format, 0, n)
	for i := 0; i < n; i++ {
		f, err := replicaFormat(fmt.Sprintf("%s_%d", prefix, i), i)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// failoverResult collects the live-load phase's counters.
type failoverResult struct {
	resolutions, failed int64
	registers, retries  int64
	blackoutNS          int64
	stalenessMaxNS      int64
}

// replicaFailoverLoad drives continuous resolve + register traffic through
// cluster clients while kill() takes the primary down mid-run. The resolver
// has a one-entry LRU so every resolution is a live round-trip to some
// replica; the blackout is the longest observed gap between two successful
// resolutions.
func replicaFailoverLoad(addrs []string, shards int, formats []*pbio.Format,
	loadFor time.Duration, kill func(), waitPromoted func() error) (failoverResult, error) {
	var fr failoverResult

	resolver := registry.NewClusterClient(addrs, shards,
		registry.WithWatchDisabled(),
		registry.WithCacheSize(1),
		registry.WithTimeout(500*time.Millisecond),
		registry.WithBackoff(100*time.Millisecond),
	)
	defer resolver.Close()
	writer := registry.NewClusterClient(addrs, shards,
		registry.WithWatchDisabled(),
		registry.WithTimeout(500*time.Millisecond),
		registry.WithBackoff(50*time.Millisecond),
	)
	defer writer.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Resolve loop: every registered fingerprint, round-robin, forever.
	var resolved, failed, maxGapNS int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		lastOK := time.Now()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f := formats[i%len(formats)]
			if _, _, err := resolver.ResolveFormat(f.Fingerprint()); err != nil {
				atomic.AddInt64(&failed, 1)
				continue
			}
			now := time.Now()
			if gap := now.Sub(lastOK).Nanoseconds(); gap > maxGapNS {
				maxGapNS = gap
			}
			lastOK = now
			atomic.AddInt64(&resolved, 1)
		}
	}()

	// Register loop: fresh formats, retried until acknowledged, then timed
	// until a cold read through the cluster sees them (staleness).
	var registers, retries, stalenessMax int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f, err := replicaFormat(fmt.Sprintf("replica_live_%d", i), i)
			if err != nil {
				return
			}
			for {
				if err := writer.Register(f); err == nil {
					break
				}
				atomic.AddInt64(&retries, 1)
				select {
				case <-stop:
					return
				case <-time.After(20 * time.Millisecond):
				}
			}
			acked := time.Now()
			atomic.AddInt64(&registers, 1)
			for {
				if _, _, err := resolver.ResolveFormat(f.Fingerprint()); err == nil {
					break
				}
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
			}
			if s := time.Since(acked).Nanoseconds(); s > stalenessMax {
				stalenessMax = s
			}
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()

	time.Sleep(loadFor / 3)
	kill()
	if err := waitPromoted(); err != nil {
		close(stop)
		wg.Wait()
		return fr, err
	}
	time.Sleep(2 * loadFor / 3)
	close(stop)
	wg.Wait()

	fr.resolutions = atomic.LoadInt64(&resolved)
	fr.failed = atomic.LoadInt64(&failed)
	fr.registers = atomic.LoadInt64(&registers)
	fr.retries = atomic.LoadInt64(&retries)
	fr.blackoutNS = maxGapNS
	fr.stalenessMaxNS = stalenessMax
	return fr, nil
}

// replicaThroughput measures cold-resolution throughput through a healthy
// 3-peer cluster vs a single daemon under the same concurrent load, plus
// the warm cluster-client hit path.
func (h *Harness) replicaThroughput(res *ReplicaResult, quick bool) error {
	const nPeers, shards, goroutines = 3, 4, 8
	window := 800 * time.Millisecond
	nFormats := 64
	if quick {
		window = 300 * time.Millisecond
		nFormats = 32
	}

	formats, err := replicaFormats("replica_cold", nFormats)
	if err != nil {
		return err
	}

	load := func(mk func() *registry.Client) (float64, error) {
		var ops int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		clients := make([]*registry.Client, goroutines)
		for g := 0; g < goroutines; g++ {
			clients[g] = mk()
		}
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			c := clients[g]
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				for i := seed; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					f := formats[i%len(formats)]
					if _, _, err := c.ResolveFormat(f.Fingerprint()); err != nil {
						return
					}
					atomic.AddInt64(&ops, 1)
				}
			}(g * 7)
		}
		time.Sleep(window)
		close(stop)
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		for _, c := range clients {
			_ = c.Close()
		}
		return float64(atomic.LoadInt64(&ops)) / elapsed, nil
	}

	// Cluster: 3 peers, reads sharded across all of them.
	peers, addrs, err := startReplicaCluster(nPeers, shards, 50*time.Millisecond)
	if err != nil {
		return err
	}
	defer func() {
		for _, p := range peers {
			p.kill()
		}
	}()
	pub := registry.NewClusterClient(addrs, shards, registry.WithWatchDisabled())
	for _, f := range formats {
		if err := pub.Register(f); err != nil {
			_ = pub.Close()
			return err
		}
	}
	_ = pub.Close()
	for _, p := range peers[1:] {
		for p.srv.Len() < nFormats {
			time.Sleep(time.Millisecond)
		}
	}
	res.ClusterResolvesPerSec, err = load(func() *registry.Client {
		return registry.NewClusterClient(addrs, shards,
			registry.WithWatchDisabled(), registry.WithCacheSize(1))
	})
	if err != nil {
		return err
	}

	// Single daemon: the same load with one server answering everything.
	srv, err := registry.NewServer()
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve(ln) }()
	for _, f := range formats {
		if err := srv.Put(f); err != nil {
			return err
		}
	}
	res.SingleResolvesPerSec, err = load(func() *registry.Client {
		return registry.NewClient(ln.Addr().String(),
			registry.WithWatchDisabled(), registry.WithCacheSize(1))
	})
	if err != nil {
		return err
	}
	if res.SingleResolvesPerSec > 0 {
		res.ResolveSpeedupX = res.ClusterResolvesPerSec / res.SingleResolvesPerSec
	}

	// Warm hit through the cluster client: the routing arithmetic must not
	// cost the 0-alloc LRU fast path.
	warm := registry.NewClusterClient(addrs, shards, registry.WithWatchDisabled())
	defer warm.Close()
	hitFP := formats[0].Fingerprint()
	if _, _, err := warm.ResolveFormat(hitFP); err != nil {
		return err
	}
	hit := func() {
		if _, _, err := warm.ResolveFormat(hitFP); err != nil {
			panic(err)
		}
	}
	res.HitNS = timeIt(hit, 20*time.Millisecond).Nanoseconds()
	res.HitAllocs = testing.AllocsPerRun(200, hit)
	return nil
}

// ExternalReplicaRun drives the failover load against an already-running
// cluster (check.sh starts three real formatd processes and SIGKILLs the
// primary mid-run). Propagation lag is sampled as write-to-visibility
// through per-peer clients; the blackout and failure counters have the same
// semantics as the in-process sweep.
func ExternalReplicaRun(addrs []string, shards int, duration time.Duration) (ReplicaResult, error) {
	res := ReplicaResult{Peers: len(addrs), Shards: shards}

	// Seed the table through the cluster (retrying while it elects).
	pub := registry.NewClusterClient(addrs, shards,
		registry.WithWatchDisabled(), registry.WithTimeout(time.Second), registry.WithBackoff(100*time.Millisecond))
	defer pub.Close()
	formats, err := replicaFormats("replica_seed", 64)
	if err != nil {
		return res, err
	}
	for _, f := range formats {
		var rerr error
		for attempt := 0; attempt < 50; attempt++ {
			if rerr = pub.Register(f); rerr == nil {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if rerr != nil {
			return res, fmt.Errorf("replica: seeding cluster: %w", rerr)
		}
	}
	// Replication settle: every peer must answer before load starts, or
	// early resolutions race the seed writes.
	for _, addr := range addrs {
		c := registry.NewClient(addr, registry.WithWatchDisabled())
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, _, err := c.ResolveFormat(formats[len(formats)-1].Fingerprint()); err == nil {
				break
			}
			if time.Now().After(deadline) {
				_ = c.Close()
				return res, fmt.Errorf("replica: peer %s never caught up", addr)
			}
			time.Sleep(50 * time.Millisecond)
		}
		_ = c.Close()
	}

	lagFormats, err := replicaFormats("replica_ext_lag", 16)
	if err != nil {
		return res, err
	}
	lags := make([]time.Duration, 0, len(lagFormats))
	for _, f := range lagFormats {
		if err := pub.Register(f); err != nil {
			return res, err
		}
		acked := time.Now()
		// Visibility on the last peer (a standby in the usual layout).
		c := registry.NewClient(addrs[len(addrs)-1], registry.WithWatchDisabled(), registry.WithNegTTL(time.Millisecond))
		for {
			if _, _, err := c.ResolveFormat(f.Fingerprint()); err == nil {
				break
			}
			if time.Since(acked) > 5*time.Second {
				_ = c.Close()
				return res, fmt.Errorf("replica: standby never saw %s", f.Name())
			}
			time.Sleep(500 * time.Microsecond)
		}
		_ = c.Close()
		lags = append(lags, time.Since(acked))
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	res.StandbyLagP50NS = lags[len(lags)/2].Nanoseconds()
	res.StandbyLagP95NS = lags[len(lags)*95/100].Nanoseconds()

	fr, err := replicaFailoverLoad(addrs, shards, formats, duration,
		func() {}, // the script does the killing, on its own clock
		func() error { return nil })
	if err != nil {
		return res, err
	}
	res.Resolutions = fr.resolutions
	res.FailedResolutions = fr.failed
	res.Registers = fr.registers
	res.RegisterRetries = fr.retries
	res.BlackoutNS = fr.blackoutNS
	res.StalenessMaxNS = fr.stalenessMaxNS
	return res, nil
}

// PrintReplica renders the experiment as the paper-style text block.
func PrintReplica(w io.Writer, r ReplicaResult) {
	fmt.Fprintf(w, "Replica. Clustered formatd under failover (%d peers, %d shards)\n", r.Peers, r.Shards)
	fmt.Fprintf(w, "  live load:        %d resolutions (%d failed), %d registers (%d retries)\n",
		r.Resolutions, r.FailedResolutions, r.Registers, r.RegisterRetries)
	fmt.Fprintf(w, "  failover:         blackout %s, write staleness max %s\n",
		time.Duration(r.BlackoutNS), time.Duration(r.StalenessMaxNS))
	fmt.Fprintf(w, "  standby lag:      p50 %s  p95 %s\n",
		time.Duration(r.StandbyLagP50NS), time.Duration(r.StandbyLagP95NS))
	if r.SingleResolvesPerSec > 0 {
		fmt.Fprintf(w, "  cold throughput:  %.0f/s sharded vs %.0f/s single daemon (%.2fx)\n",
			r.ClusterResolvesPerSec, r.SingleResolvesPerSec, r.ResolveSpeedupX)
		fmt.Fprintf(w, "  warm hit:         %dns/op  %.1f allocs/op\n", r.HitNS, r.HitAllocs)
	}
	fmt.Fprintln(w)
}
