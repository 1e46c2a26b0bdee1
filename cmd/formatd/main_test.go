package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/registry"
	"repro/internal/tap"
)

// daemonEnv, when set, turns the test binary into formatd: TestMain runs
// main with the child's flags. TestSIGKILLPrimaryUnderLoad starts its peers
// this way, so they are real processes it can SIGKILL.
const daemonEnv = "FORMATD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		// The parent holds the write end of stdin: when it dies, however it
		// dies, EOF here takes the daemon down with it.
		go func() {
			_, _ = io.Copy(io.Discard, os.Stdin)
			os.Exit(0)
		}()
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDaemonSmoke drives run() in-process: register a format through a real
// client, resolve it back, check /debug/registryz serves valid JSON, then
// restart over the same snapshot and confirm the table survived.
func TestDaemonSmoke(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "table.spool")
	debugAddr := "127.0.0.1:0"

	start := func() (addr string, stop func()) {
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() {
			done <- run(daemonConfig{addr: "127.0.0.1:0", debug: debugAddr, snapshot: snap}, ready)
		}()
		select {
		case addr = <-ready:
		case err := <-done:
			t.Fatalf("daemon exited before ready: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("daemon never became ready")
		}
		return addr, func() {
			_ = syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("daemon did not shut down on SIGTERM")
			}
		}
	}

	addr, stop := start()
	f, err := pbio.NewFormat("smoke", []pbio.Field{{Name: "n", Kind: pbio.Integer, Size: 4}})
	if err != nil {
		t.Fatal(err)
	}
	c := registry.NewClient(addr)
	if err := c.Register(f); err != nil {
		t.Fatal(err)
	}
	rf, _, err := c.ResolveFormat(f.Fingerprint())
	if err != nil || rf.Fingerprint() != f.Fingerprint() {
		t.Fatalf("resolve: %v", err)
	}
	_ = c.Close()
	stop()

	// Restart over the same snapshot: the entry must still resolve, this
	// time without any client having registered it.
	debugAddr = "127.0.0.1:0" // fresh ephemeral port for the second instance
	addr2, stop2 := start()
	defer stop2()
	c2 := registry.NewClient(addr2)
	defer c2.Close()
	rf2, _, err := c2.ResolveFormat(f.Fingerprint())
	if err != nil || rf2.Fingerprint() != f.Fingerprint() {
		t.Fatalf("resolve after restart: %v", err)
	}
}

// TestRegistryzEndToEnd checks the debug HTTP surface of a live daemon
// running with a snapshot: registryz in both renderings, the telemetry plane
// (with the spool readiness probe -snapshot adds), tapz and pprof.
func TestRegistryzEndToEnd(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan error, 1)
	dbg := freePort(t)
	snap := filepath.Join(t.TempDir(), "table.spool")
	go func() { done <- run(daemonConfig{addr: "127.0.0.1:0", debug: dbg, snapshot: snap}, ready) }()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("daemon exited: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}
	defer func() {
		_ = syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
		<-done
	}()

	get := func(path string, header ...string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, "http://"+dbg+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(header) == 2 {
			req.Header.Set(header[0], header[1])
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer res.Body.Close()
		var buf strings.Builder
		if _, err := io.Copy(&buf, res.Body); err != nil {
			t.Fatal(err)
		}
		return res.StatusCode, buf.String()
	}
	getJSON := func(path string, v any) {
		t.Helper()
		code, body := get(path)
		if code != 200 {
			t.Fatalf("GET %s = %d: %s", path, code, body)
		}
		if err := json.Unmarshal([]byte(body), v); err != nil {
			t.Fatalf("GET %s is not valid JSON: %v\n%s", path, err, body)
		}
	}

	var doc struct {
		Count    int              `json:"count"`
		WatchSeq *uint64          `json:"watch_seq"`
		Watchers *json.RawMessage `json:"watchers"`
	}
	getJSON(registry.RegistryzPath, &doc)
	if doc.Count != 0 {
		t.Fatalf("fresh daemon reports %d entries", doc.Count)
	}
	if doc.WatchSeq == nil || doc.Watchers == nil || !strings.HasPrefix(string(*doc.Watchers), "[") {
		t.Errorf("registryz lacks watch_seq or a watchers array: %+v", doc)
	}
	if _, body := get(registry.RegistryzPath, "Accept", "text/plain"); !strings.HasPrefix(body, "# formatd table:") {
		t.Errorf("registryz ignored Accept: text/plain:\n%s", body)
	}

	// The rest of the telemetry plane rides the same listener: Prometheus
	// exposition, liveness, probed readiness (listener self-dial, and the
	// spool probe -snapshot adds), tapz, the index and profiles.
	if code, body := get(obs.MetricsPath); code != 200 ||
		!strings.Contains(body, "# TYPE morph_formatd_entries gauge") {
		t.Errorf("/metrics = %d, want formatd series:\n%s", code, body)
	}
	if code, body := get(obs.HealthzPath); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Errorf("/healthz = %d %q", code, body)
	}
	var readyz obs.ReadySnapshot
	getJSON(obs.ReadyzPath, &readyz)
	probes := map[string]bool{}
	for _, p := range readyz.Probes {
		probes[p.Name] = true
	}
	if !readyz.Ready || !probes["listener"] || !probes["spool"] {
		t.Errorf("/readyz = %+v, want ready with listener and spool probes", readyz)
	}
	var tz tap.TapzSnapshot
	getJSON(tap.TapzPath, &tz)
	if tz.Name != "formatd" {
		t.Errorf("/debug/tapz name = %q, want formatd", tz.Name)
	}
	if code, body := get(obs.DebugIndexPath); code != 200 ||
		!strings.Contains(body, registry.RegistryzPath) {
		t.Errorf("/debug/ index = %d, want listing including registryz:\n%s", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d, want the pprof index every debug listener carries", code)
	}
}

// TestSIGKILLPrimaryUnderLoad is the real-process failover gate: three
// formatd processes form a peer set, a cluster client resolves and registers
// continuously, and the primary is SIGKILLed mid-load. No resolution may
// fail, peer 1 must take over, and neither the read blackout nor the write
// staleness may reach 5 s.
func TestSIGKILLPrimaryUnderLoad(t *testing.T) {
	// Reserve three distinct loopback ports: hold every listener, then free
	// them all for the children to bind.
	lns := make([]net.Listener, 3)
	addrs := make([]string, len(lns))
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range lns {
		_ = ln.Close()
	}
	daemons := make([]*daemonProc, len(addrs))
	for i := range addrs {
		daemons[i] = startDaemonProc(t, "-addr", addrs[i], "-debug", "127.0.0.1:0",
			"-peers", strings.Join(addrs, ","), "-self", fmt.Sprint(i), "-hb", "100ms")
	}
	waitRole := func(i int, role string) error {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if doc, err := daemons[i].registryz(); err == nil && doc.Cluster.Role == role {
				return nil
			}
			time.Sleep(20 * time.Millisecond)
		}
		return fmt.Errorf("peer %d never reported %s", i, role)
	}
	if err := waitRole(0, "primary"); err != nil {
		t.Fatal(err)
	}

	formats, err := replicaFormats("sigkill_seed", 64)
	if err != nil {
		t.Fatal(err)
	}
	pub := registry.NewClusterClient(addrs, registry.WithWatchDisabled(),
		registry.WithTimeout(time.Second), registry.WithBackoff(100*time.Millisecond))
	defer pub.Close()
	for _, f := range formats {
		deadline := time.Now().Add(10 * time.Second)
		for err := pub.Register(f); err != nil; err = pub.Register(f) {
			if time.Now().After(deadline) {
				t.Fatalf("seeding the cluster: %v", err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	// Every peer must hold the seed before the load starts, or early
	// resolutions race replication instead of measuring failover.
	for i := range daemons {
		deadline := time.Now().Add(10 * time.Second)
		for {
			doc, err := daemons[i].registryz()
			if err == nil && doc.Count >= len(formats) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("peer %d never caught up (%+v, %v)", i, doc, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	var res failoverResult
	err = failoverLoad(&res, addrs, formats, 1500*time.Millisecond,
		func() { _ = daemons[0].cmd.Process.Kill() },
		func() error { return waitRole(1, "primary") })
	if err != nil {
		t.Fatalf("%v\npeer 1 log:\n%s", err, daemons[1].log.String())
	}
	t.Logf("%d resolutions (%d failed), %d registers (%d retries), blackout %s, staleness %s",
		res.Resolutions, res.FailedResolutions, res.Registers, res.RegisterRetries,
		time.Duration(res.BlackoutNS), time.Duration(res.StalenessMaxNS))
	if res.FailedResolutions != 0 || res.Resolutions == 0 {
		t.Errorf("%d failed resolutions of %d across the SIGKILL", res.FailedResolutions, res.Resolutions)
	}
	if err := waitRole(1, "primary"); err != nil {
		t.Error(err)
	}
	if res.BlackoutNS >= 5e9 || res.StalenessMaxNS >= 5e9 {
		t.Errorf("blackout %s / write staleness %s at or above the 5s ceiling",
			time.Duration(res.BlackoutNS), time.Duration(res.StalenessMaxNS))
	}
}

// failoverResult is what failoverLoad counted.
type failoverResult struct {
	Resolutions, FailedResolutions int64
	Registers, RegisterRetries     int64
	BlackoutNS, StalenessMaxNS     int64
}

// replicaFormat builds one structurally distinct format. The name is part of
// the fingerprint, so sets built under different names never collide in
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

// failoverLoad drives continuous resolve + register traffic through cluster
// clients for loadFor while kill() takes the primary down a third of the way
// in, and records the live-load counters in res. The resolver has a
// one-entry LRU so every resolution is a live round-trip to some replica;
// the blackout is the longest observed gap between two successful
// resolutions. formats must already be registered.
func failoverLoad(res *failoverResult, addrs []string, formats []*pbio.Format,
	loadFor time.Duration, kill func(), waitPromoted func() error) error {

	resolver := registry.NewClusterClient(addrs,
		registry.WithWatchDisabled(),
		registry.WithCacheSize(1),
		registry.WithTimeout(500*time.Millisecond),
		registry.WithBackoff(100*time.Millisecond),
	)
	defer resolver.Close()
	writer := registry.NewClusterClient(addrs,
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
			f, err := replicaFormat(fmt.Sprintf("failover_live_%d", i), i)
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
		return err
	}
	time.Sleep(2 * loadFor / 3)
	close(stop)
	wg.Wait()

	res.Resolutions = atomic.LoadInt64(&resolved)
	res.FailedResolutions = atomic.LoadInt64(&failed)
	res.Registers = atomic.LoadInt64(&registers)
	res.RegisterRetries = atomic.LoadInt64(&retries)
	res.BlackoutNS = maxGapNS
	res.StalenessMaxNS = stalenessMax
	return nil
}

// daemonProc is one formatd child process and its captured log.
type daemonProc struct {
	cmd *exec.Cmd
	log *lockedBuffer
}

// startDaemonProc re-executes the test binary as formatd with args, and
// kills and reaps it when the test ends.
func startDaemonProc(t *testing.T, args ...string) *daemonProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	d := &daemonProc{cmd: cmd, log: &lockedBuffer{}}
	cmd.Stdout, cmd.Stderr = d.log, d.log
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		_ = stdin.Close()
	})
	return d
}

var (
	debugURL    = regexp.MustCompile(`debug endpoints on (http://\S+)`)
	debugClient = &http.Client{Timeout: 2 * time.Second}
)

// registryz fetches the daemon's /debug/registryz document once it has
// logged its debug address.
func (d *daemonProc) registryz() (registryzDoc, error) {
	var doc registryzDoc
	m := debugURL.FindStringSubmatch(d.log.String())
	if m == nil {
		return doc, fmt.Errorf("no debug address logged yet")
	}
	res, err := debugClient.Get(m[1])
	if err != nil {
		return doc, err
	}
	defer res.Body.Close()
	return doc, json.NewDecoder(res.Body).Decode(&doc)
}

// registryzDoc is the part of /debug/registryz the failover test reads.
type registryzDoc struct {
	Count   int `json:"count"`
	Cluster struct {
		Role string `json:"role"`
	} `json:"cluster"`
}

// lockedBuffer is a bytes.Buffer safe for a child's output copier and the
// test reading it concurrently.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}
