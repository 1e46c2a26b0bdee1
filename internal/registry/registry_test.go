package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pbio"
)

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

// startDaemon runs a Server on a loopback listener, returning its address.
func startDaemon(t *testing.T, opts ...ServerOption) (*Server, string) {
	t.Helper()
	s, err := NewServer(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() { _ = ln.Close() })
	return s, ln.Addr().String()
}

func TestEntryCodecRoundTrip(t *testing.T) {
	v2 := testFormat(t, "ev", 1)
	v1 := testFormat(t, "ev", 0)
	x := &core.Xform{From: v2, To: v1, Code: "old.id = new.id; old.body = new.body;"}
	e, err := decodeEntry(encodeEntry(v2, []*core.Xform{x}))
	if err != nil {
		t.Fatal(err)
	}
	if e.Format.Fingerprint() != v2.Fingerprint() {
		t.Fatalf("fingerprint mismatch: %016x != %016x", e.Format.Fingerprint(), v2.Fingerprint())
	}
	if len(e.Xforms) != 1 || e.Xforms[0].Code != x.Code {
		t.Fatalf("transforms not preserved: %+v", e.Xforms)
	}
	if _, err := decodeEntry([]byte{0xff, 0xff}); err == nil {
		t.Fatal("malformed entry decoded without error")
	}
}

func TestRegisterAndResolve(t *testing.T) {
	srv, addr := startDaemon(t)
	reg := obs.NewRegistry("test")
	c := NewClient(addr, WithClientObs(reg))
	defer c.Close()

	f := testFormat(t, "sensor", 2)
	x := &core.Xform{From: f, To: testFormat(t, "sensor", 0), Code: "old.id = new.id; old.body = new.body;"}
	if err := c.Register(f, x); err != nil {
		t.Fatal(err)
	}
	if srv.Len() != 1 {
		t.Fatalf("daemon table has %d entries, want 1", srv.Len())
	}
	if !c.Holds(f) {
		t.Fatal("Holds = false after acknowledged Register")
	}

	// Resolve through a second client: nothing shared but the daemon.
	c2 := NewClient(addr, WithClientObs(obs.NewRegistry("test2")))
	defer c2.Close()
	rf, xforms, err := c2.ResolveFormat(f.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if rf.Fingerprint() != f.Fingerprint() || len(xforms) != 1 {
		t.Fatalf("resolved %016x with %d transforms", rf.Fingerprint(), len(xforms))
	}

	// Second resolution must be an allocation-free cache hit.
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := c2.ResolveFormat(f.Fingerprint()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cache hit allocates %.1f times per call, want 0", allocs)
	}
}

func TestNegativeCacheAndSingleflight(t *testing.T) {
	srv, addr := startDaemon(t)
	reg := obs.NewRegistry("test")
	c := NewClient(addr, WithClientObs(reg), WithNegTTL(time.Hour))
	defer c.Close()

	const ghost = 0xdeadbeef
	if _, _, err := c.ResolveFormat(ghost); !errors.Is(err, ErrUnknownFingerprint) {
		t.Fatalf("err = %v, want ErrUnknownFingerprint", err)
	}
	// Repeat hits the negative cache, not the daemon.
	gets := srv.gets.Load() + srv.unk.Load()
	for i := 0; i < 10; i++ {
		if _, _, err := c.ResolveFormat(ghost); !errors.Is(err, ErrUnknownFingerprint) {
			t.Fatalf("err = %v, want ErrUnknownFingerprint", err)
		}
	}
	if got := srv.gets.Load() + srv.unk.Load(); got != gets {
		t.Fatalf("negative lookups reached the daemon: %d → %d RPCs", gets, got)
	}
	if reg.Counter("registry.negative_hits").Load() != 10 {
		t.Fatalf("negative_hits = %d, want 10", reg.Counter("registry.negative_hits").Load())
	}

	// Singleflight: concurrent misses on a fresh fingerprint produce one fetch.
	f := testFormat(t, "burst", 1)
	if err := srv.Put(f); err != nil {
		t.Fatal(err)
	}
	misses0 := reg.Counter("registry.misses").Load()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.ResolveFormat(f.Fingerprint()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Followers share the leader's RPC; a straggler that misses the flight
	// window still hits the now-populated LRU. Either way the daemon sees
	// far fewer than 16 fetches — with full dedup exactly 1.
	if d := reg.Counter("registry.misses").Load() - misses0; d > 2 {
		t.Errorf("%d cold fetches for 16 concurrent misses, want ≲1", d)
	}
}

func TestClientDownAndRecovery(t *testing.T) {
	// No daemon at this address at all.
	c := NewClient("127.0.0.1:1", WithTimeout(200*time.Millisecond), WithBackoff(50*time.Millisecond))
	defer c.Close()

	f := testFormat(t, "orphan", 0)
	if err := c.Register(f); err == nil {
		t.Fatal("Register against nothing succeeded")
	}
	if !c.Down() {
		t.Fatal("client not down after dial failure")
	}
	if c.Holds(f) {
		t.Fatal("Holds = true while down")
	}
	// While down, RPCs fail fast with ErrDown rather than redialing.
	if _, _, err := c.ResolveFormat(42); !errors.Is(err, ErrDown) {
		t.Fatalf("err = %v, want ErrDown", err)
	}

	// Recovery: a daemon appears and the backoff expires.
	srv, addr := startDaemon(t)
	c2 := NewClient(addr, WithBackoff(10*time.Millisecond))
	defer c2.Close()
	if err := c2.Register(f); err != nil {
		t.Fatal(err)
	}
	if srv.Len() != 1 {
		t.Fatal("entry did not reach the daemon")
	}
}

func TestLRUEviction(t *testing.T) {
	srv, addr := startDaemon(t)
	reg := obs.NewRegistry("test")
	// Watch pushes insert into the same LRU from the read pump, racing the
	// resolutions below; this test pins eviction by resolution alone.
	c := NewClient(addr, WithClientObs(reg), WithCacheSize(2), WithWatchDisabled())
	defer c.Close()

	var fps []uint64
	for i := 0; i < 3; i++ {
		f := testFormat(t, fmt.Sprintf("f%d", i), i)
		if err := srv.Put(f); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, f.Fingerprint())
		if _, _, err := c.ResolveFormat(f.Fingerprint()); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 2: resolving f0 again must be a miss (evicted), f2 a hit.
	misses0 := reg.Counter("registry.misses").Load()
	if _, _, err := c.ResolveFormat(fps[0]); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("registry.misses").Load() != misses0+1 {
		t.Fatal("evicted entry did not refetch")
	}
	hits0 := reg.Counter("registry.hits").Load()
	if _, _, err := c.ResolveFormat(fps[2]); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("registry.hits").Load() != hits0+1 {
		t.Fatal("recent entry was not a cache hit")
	}
}

func TestSnapshotPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table.spool")
	s1, err := NewServer(WithSnapshotPath(path))
	if err != nil {
		t.Fatal(err)
	}
	f := testFormat(t, "durable", 1)
	x := &core.Xform{From: f, To: testFormat(t, "durable", 0), Code: "old.id = new.id; old.body = new.body;"}
	if err := s1.Put(f, x); err != nil {
		t.Fatal(err)
	}

	// A new server over the same path restarts with the table intact.
	s2, err := NewServer(WithSnapshotPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("restarted table has %d entries, want 1", s2.Len())
	}
	e, err := s2.Resolve(f.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if e.Format.Fingerprint() != f.Fingerprint() || len(e.Xforms) != 1 {
		t.Fatal("snapshot did not preserve the entry")
	}
}

func TestRegistryzHandler(t *testing.T) {
	s, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testFormat(t, "zz", 0)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, err := ts.Client().Get(ts.URL + RegistryzPath)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var snap registryzSnapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Count != 1 || len(snap.Entries) != 1 || snap.Entries[0].Format != "zz" {
		t.Fatalf("registryz = %+v", snap)
	}
	if snap.WatchSeq != 1 {
		t.Fatalf("watch_seq = %d, want 1 (one Put = one event)", snap.WatchSeq)
	}
	if len(snap.Watchers) != 0 {
		t.Fatalf("watchers = %+v, want none", snap.Watchers)
	}

	// The text dump is negotiated like every other debug page: ?format=text
	// or an Accept: text/plain header.
	for _, accept := range []bool{false, true} {
		req := httptest.NewRequest("GET", RegistryzPath+"?format=text", nil)
		if accept {
			req = httptest.NewRequest("GET", RegistryzPath, nil)
			req.Header.Set("Accept", "text/plain")
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") ||
			!strings.HasPrefix(rec.Body.String(), "# formatd table: 1 entries") {
			t.Errorf("Accept header=%v: Content-Type %q, body:\n%s", accept, ct, rec.Body.String())
		}
	}
}

// TestRegistryzWatchers: live subscriptions show up in the debug snapshot
// with their delivery progress.
func TestRegistryzWatchers(t *testing.T) {
	s, addr := startDaemon(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := NewClient(addr)
	defer c.Close()
	if err := c.Watch(); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(testFormat(t, "watched", 0)); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "watcher visible in registryz", func() bool {
		res, err := ts.Client().Get(ts.URL + RegistryzPath)
		if err != nil {
			return false
		}
		defer res.Body.Close()
		var snap registryzSnapshot
		if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
			return false
		}
		return len(snap.Watchers) == 1 && snap.Watchers[0].SentSeq >= 1 &&
			snap.Watchers[0].Remote != "" && snap.WatchSeq >= 1
	})
}
