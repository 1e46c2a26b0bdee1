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
	"syscall"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/registry"
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

// TestRegistryzEndToEnd checks the debug HTTP surface of a live daemon.
func TestRegistryzEndToEnd(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan error, 1)
	// Fixed ephemeral debug port is not knowable in advance; use the obs
	// server indirectly by scraping the daemon log is fragile — instead run
	// the registry server + handler directly via the library in
	// internal/registry tests. Here, just confirm run() wires the handler:
	// bind debug to a port we choose.
	dbg := freePort(t)
	go func() { done <- run(daemonConfig{addr: "127.0.0.1:0", debug: dbg}, ready) }()
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

	res, err := http.Get(fmt.Sprintf("http://%s%s", dbg, registry.RegistryzPath))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var doc struct {
		Entries []any `json:"entries"`
		Count   int   `json:"count"`
	}
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		t.Fatalf("registryz is not valid JSON: %v", err)
	}
	if doc.Count != 0 {
		t.Fatalf("fresh daemon reports %d entries", doc.Count)
	}

	// The rest of the telemetry plane rides the same listener: Prometheus
	// exposition, liveness, probed readiness (listener self-dial; no spool
	// probe without -snapshot), the index and profiles.
	get := func(path string) (int, string) {
		t.Helper()
		res, err := http.Get("http://" + dbg + path)
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
	if code, body := get(obs.MetricsPath); code != 200 ||
		!strings.Contains(body, "# TYPE morph_formatd_entries gauge") {
		t.Errorf("/metrics = %d, want formatd series:\n%s", code, body)
	}
	if code, body := get(obs.HealthzPath); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get(obs.ReadyzPath); code != 200 || !strings.Contains(body, `"listener"`) {
		t.Errorf("/readyz = %d, want 200 with a listener probe: %s", code, body)
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

	const shards = 4
	formats, err := bench.ReplicaFormats("sigkill_seed", 64)
	if err != nil {
		t.Fatal(err)
	}
	pub := registry.NewClusterClient(addrs, shards, registry.WithWatchDisabled(),
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

	var res bench.ReplicaResult
	err = bench.FailoverLoad(&res, addrs, shards, formats, 1500*time.Millisecond,
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
