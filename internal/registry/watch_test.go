package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/wire"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestRegisterPurgesNegativeCache is the regression test for the verified
// staleness bug: a client that resolved a fingerprint to
// ErrUnknownFingerprint, then registered that very format, kept serving the
// cached miss until the negative TTL expired. Register must purge the
// negative entry and insert the entry into the LRU. Watch is disabled so
// the purge is attributable to Register alone, not to the event stream.
func TestRegisterPurgesNegativeCache(t *testing.T) {
	_, addr := startDaemon(t)
	reg := obs.NewRegistry("test")
	c := NewClient(addr, WithClientObs(reg), WithNegTTL(time.Hour), WithWatchDisabled())
	defer c.Close()

	f := testFormat(t, "latecomer", 1)
	if _, _, err := c.ResolveFormat(f.Fingerprint()); !errors.Is(err, ErrUnknownFingerprint) {
		t.Fatalf("err = %v, want ErrUnknownFingerprint", err)
	}
	if err := c.Register(f); err != nil {
		t.Fatal(err)
	}

	// The miss must clear immediately — not after the hour-long TTL — and
	// the entry must come from the LRU, not another daemon round-trip.
	misses0 := reg.Counter("registry.misses").Load()
	rf, _, err := c.ResolveFormat(f.Fingerprint())
	if err != nil {
		t.Fatalf("cached miss survived Register: %v", err)
	}
	if rf.Fingerprint() != f.Fingerprint() {
		t.Fatalf("resolved wrong format %016x", rf.Fingerprint())
	}
	if got := reg.Counter("registry.misses").Load(); got != misses0 {
		t.Errorf("resolution after Register went to the daemon (%d cold fetches)", got-misses0)
	}
	if reg.Counter("registry.hits").Load() == 0 {
		t.Error("resolution after Register was not an LRU hit")
	}
}

// TestDownWhenClosed: a closed client fails every RPC with ErrClosed, so
// Down must report true — consistently with Holds, which already treats
// closed as down.
func TestDownWhenClosed(t *testing.T) {
	_, addr := startDaemon(t)
	c := NewClient(addr)
	if c.Down() {
		t.Fatal("fresh client reports down")
	}
	_ = c.Close()
	if !c.Down() {
		t.Fatal("closed client reports not down, but every RPC fails with ErrClosed")
	}
}

// TestFetchMetricsSplit: daemon round-trips answered "unknown fingerprint"
// must count as registry.unknowns, not inflate registry.misses (which then
// double-billed with negative_hits on the repeats).
func TestFetchMetricsSplit(t *testing.T) {
	srv, addr := startDaemon(t)
	reg := obs.NewRegistry("test")
	c := NewClient(addr, WithClientObs(reg), WithNegTTL(time.Hour), WithWatchDisabled())
	defer c.Close()

	if _, _, err := c.ResolveFormat(0xfee1dead); !errors.Is(err, ErrUnknownFingerprint) {
		t.Fatalf("err = %v, want ErrUnknownFingerprint", err)
	}
	if got := reg.Counter("registry.unknowns").Load(); got != 1 {
		t.Errorf("unknowns = %d, want 1", got)
	}
	if got := reg.Counter("registry.misses").Load(); got != 0 {
		t.Errorf("misses = %d after an unknown-only round-trip, want 0", got)
	}

	f := testFormat(t, "known", 0)
	if err := srv.Put(f); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ResolveFormat(f.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("registry.misses").Load(); got != 1 {
		t.Errorf("misses = %d after one entry-answering round-trip, want 1", got)
	}
	if got := reg.Counter("registry.unknowns").Load(); got != 1 {
		t.Errorf("unknowns = %d, want still 1", got)
	}
}

// TestWatchInvalidatesNegativeCache is the tentpole's acceptance scenario:
// a format registered by one peer *after* another peer cached a negative
// resolution becomes resolvable on that peer without waiting out the
// negative TTL — the daemon pushes the registration as an invalidation
// event.
func TestWatchInvalidatesNegativeCache(t *testing.T) {
	_, addr := startDaemon(t)
	reg := obs.NewRegistry("test")
	watcher := NewClient(addr, WithClientObs(reg), WithNegTTL(time.Hour))
	defer watcher.Close()
	if err := watcher.Watch(); err != nil {
		t.Fatal(err)
	}

	f := testFormat(t, "pushed", 2)
	fp := f.Fingerprint()
	if _, _, err := watcher.ResolveFormat(fp); !errors.Is(err, ErrUnknownFingerprint) {
		t.Fatalf("err = %v, want ErrUnknownFingerprint", err)
	}

	// A different client registers the format.
	pub := NewClient(addr)
	defer pub.Close()
	if err := pub.Register(f); err != nil {
		t.Fatal(err)
	}

	// The watcher sees it long before the hour-long TTL: the event purges
	// the negative entry and pre-inserts the LRU entry.
	waitFor(t, "event-driven invalidation", func() bool {
		_, _, err := watcher.ResolveFormat(fp)
		return err == nil
	})
	// The event is counted just after its entry becomes resolvable; no event
	// at all means the resolution recovered some other way.
	waitFor(t, "the watch event to be counted", func() bool {
		return reg.Counter("registry.watch_events").Load() > 0
	})
	// And it resolved from the LRU — the event carried the entry payload,
	// so no extra daemon round-trip was needed.
	if got := reg.Counter("registry.misses").Load(); got != 0 {
		t.Errorf("misses = %d, want 0 (entry should arrive via the event)", got)
	}
}

// TestWatchPrewarmsFreshSubscriber: subscribing replays the daemon's current
// table, so a long-lived intermediary holds (and may suppress) formats it
// has never resolved or published.
func TestWatchPrewarmsFreshSubscriber(t *testing.T) {
	srv, addr := startDaemon(t)
	var fs []*pbio.Format
	for i := 0; i < 3; i++ {
		f := testFormat(t, fmt.Sprintf("warm%d", i), i)
		fs = append(fs, f)
		if err := srv.Put(f); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.NewRegistry("test")
	c := NewClient(addr, WithClientObs(reg))
	defer c.Close()
	if err := c.Watch(); err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		f := f
		waitFor(t, "pre-warmed entry "+f.Name(), func() bool { return c.Holds(f) })
	}
	if got := reg.Counter("registry.misses").Load(); got != 0 {
		t.Errorf("pre-warm cost %d cold fetches, want 0", got)
	}
}

// TestWatchReconnectSeqnoReplay kills the daemon mid-subscription, restarts
// a fresh instance on the same address, and registers a new format while
// the client is still down: the client's automatic resubscribe (jittered
// backoff, seqno replay — a full resync here, since the new instance cannot
// prove continuity) must deliver the registration. Zero invalidations lost.
func TestWatchReconnectSeqnoReplay(t *testing.T) {
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
	watcher := NewClient(addr, WithClientObs(reg), WithNegTTL(time.Hour), WithBackoff(20*time.Millisecond))
	defer watcher.Close()
	if err := watcher.Watch(); err != nil {
		t.Fatal(err)
	}

	// Live subscription: an event arrives, advancing the client's seqno.
	pub1 := NewClient(addr)
	f1 := testFormat(t, "before", 0)
	if err := pub1.Register(f1); err != nil {
		t.Fatal(err)
	}
	_ = pub1.Close()
	waitFor(t, "pre-crash event", func() bool { return watcher.Holds(f1) })

	// Cache a negative resolution for the format that will appear later.
	f2 := testFormat(t, "after", 3)
	if _, _, err := watcher.ResolveFormat(f2.Fingerprint()); !errors.Is(err, ErrUnknownFingerprint) {
		t.Fatalf("err = %v, want ErrUnknownFingerprint", err)
	}

	// Crash the daemon; bring up a fresh instance on the same address.
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

	// Register the format on the new instance while the watcher is down.
	pub2 := NewClient(addr)
	defer pub2.Close()
	waitFor(t, "registering on the restarted daemon", func() bool {
		return pub2.Register(f2) == nil
	})

	// The watcher resubscribes on its own; the instance change forces a
	// full resync, which carries f2 — the cached miss clears without any
	// foreground RPC from the watcher.
	waitFor(t, "post-restart invalidation", func() bool {
		_, _, err := watcher.ResolveFormat(f2.Fingerprint())
		return err == nil
	})
	// The resync events race the resubscribe's own bookkeeping, which counts
	// the resumption only after the watch RPC has returned.
	waitFor(t, "the resubscription to be counted", func() bool {
		return reg.Counter("registry.watch_resubscribes").Load() > 0
	})
	// f1 must have survived too (it was already in the LRU).
	if !watcher.Holds(f1) {
		t.Error("pre-crash entry lost across the reconnect")
	}
}

// legacyDaemon is a minimal pre-watch (PR 4) registry daemon: it speaks
// opGet/opPut only and answers anything else with statusError via opGetResp,
// exactly like the shipped dispatch's default arm did before watch existed.
func startLegacyDaemon(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				var conn *wire.Conn
				conn = wire.NewConn(nc, wire.WithControlHook(wire.FrameRegistry, func(body []byte) error {
					op, reqID, _, err := parseHeader(body)
					if err != nil {
						return err
					}
					switch op {
					case opGet:
						return conn.WriteControl(wire.FrameRegistry, appendResponse(nil, opGetResp, reqID, statusUnknown, nil))
					case opPut:
						return conn.WriteControl(wire.FrameRegistry, appendResponse(nil, opPutResp, reqID, statusOK, nil))
					default:
						return conn.WriteControl(wire.FrameRegistry, appendResponse(nil, opGetResp, reqID, statusError, []byte("unknown op")))
					}
				}))
				defer conn.Close()
				for {
					if _, _, err := conn.ReadEncoded(); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestWatchDegradesOnLegacyDaemon: against a daemon that predates the watch
// protocol, Watch reports ErrWatchUnsupported and ordinary RPCs keep
// working — the client silently stays on poll-on-miss.
func TestWatchDegradesOnLegacyDaemon(t *testing.T) {
	addr := startLegacyDaemon(t)
	c := NewClient(addr)
	defer c.Close()

	if err := c.Watch(); !errors.Is(err, ErrWatchUnsupported) {
		t.Fatalf("Watch = %v, want ErrWatchUnsupported", err)
	}
	f := testFormat(t, "legacy", 0)
	if err := c.Register(f); err != nil {
		t.Fatalf("Register against legacy daemon: %v", err)
	}
	if _, _, err := c.ResolveFormat(0xabcdef); !errors.Is(err, ErrUnknownFingerprint) {
		t.Fatalf("err = %v, want ErrUnknownFingerprint", err)
	}
}

// TestConcurrentResolveRegisterWatch hammers one client from three sides at
// once — resolutions (hits, misses, negative hits), registrations, and the
// daemon's event stream — to give the race detector surface area over the
// cache, singleflight, and watch bookkeeping.
func TestConcurrentResolveRegisterWatch(t *testing.T) {
	srv, addr := startDaemon(t)
	c := NewClient(addr, WithNegTTL(10*time.Millisecond), WithCacheSize(16))
	defer c.Close()
	if err := c.Watch(); err != nil {
		t.Fatal(err)
	}

	var formats []*pbio.Format
	for i := 0; i < 24; i++ {
		formats = append(formats, testFormat(t, fmt.Sprintf("race%d", i), i%5))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Registrars: half through the client, half straight into the server
	// (which pushes events at the watching client).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				f := formats[r.Intn(len(formats))]
				if g == 0 {
					_ = c.Register(f)
				} else {
					_ = srv.Put(f)
				}
			}
		}(g)
	}
	// Resolvers: real fingerprints and ghosts, racing the event stream.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if r.Intn(4) == 0 {
					_, _, _ = c.ResolveFormat(r.Uint64() | 1) // almost surely a ghost
				} else {
					_, _, _ = c.ResolveFormat(formats[r.Intn(len(formats))].Fingerprint())
				}
			}
		}(g)
	}
	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()
}
