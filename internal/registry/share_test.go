package registry

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fleetgen"
	"repro/internal/pbio"
)

// churnLineage returns k generations of one fleetgen lineage, each after
// the first with transforms to generation 0 and to its predecessor: the
// shape format_churn registers.
func churnLineage(t *testing.T, k int) ([]*pbio.Format, [][]*core.Xform) {
	t.Helper()
	l, err := fleetgen.NewLineage("share", 1, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for len(l.Generations()) < k {
		if _, err := l.Evolve(); err != nil {
			t.Fatal(err)
		}
	}
	gens := l.Generations()
	formats := make([]*pbio.Format, k)
	xforms := make([][]*core.Xform, k)
	for i, g := range gens {
		formats[i] = g.Format
		var tos []*fleetgen.Generation
		switch {
		case i == 1:
			tos = gens[:1]
		case i > 1:
			tos = []*fleetgen.Generation{gens[0], gens[i-1]}
		}
		for _, to := range tos {
			x, err := fleetgen.XformBetween(g, to)
			if err != nil {
				t.Fatal(err)
			}
			xforms[i] = append(xforms[i], x)
		}
	}
	return formats, xforms
}

// reachable maps every fingerprint reachable from the cache — entries and
// their transforms' From and To — to the distinct format objects found for
// it.
func reachable(k *cache) map[uint64]map[*pbio.Format]bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	seen := make(map[uint64]map[*pbio.Format]bool)
	note := func(f *pbio.Format) {
		if seen[f.Fingerprint()] == nil {
			seen[f.Fingerprint()] = make(map[*pbio.Format]bool)
		}
		seen[f.Fingerprint()][f] = true
	}
	for _, e := range k.lru {
		note(e.format)
		for _, x := range e.xforms {
			note(x.From)
			note(x.To)
		}
	}
	return seen
}

// TestWatchKeepsOneFormatPerFingerprint pushes K generations through the
// watch stream and checks that every fingerprint reachable from a client's
// cache maps to exactly one *pbio.Format, both on a client that only
// watches and on the one that registered them.
func TestWatchKeepsOneFormatPerFingerprint(t *testing.T) {
	const gens = 12
	_, addr := startDaemon(t)
	pub := NewClient(addr)
	defer pub.Close()
	watcher := NewClient(addr)
	defer watcher.Close()
	for _, c := range []*Client{pub, watcher} {
		if err := c.Watch(); err != nil {
			t.Fatal(err)
		}
	}

	formats, xforms := churnLineage(t, gens)
	for i, f := range formats {
		if err := pub.Register(f, xforms[i]...); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []*Client{pub, watcher} {
		k := &c.peers[0].cache
		waitFor(t, "every generation pushed", func() bool {
			k.mu.Lock()
			defer k.mu.Unlock()
			return k.watchSeq >= uint64(len(formats)) && len(k.lru) == len(formats)
		})
		seen := reachable(k)
		if len(seen) != len(formats) {
			t.Errorf("%d fingerprints reachable, want %d", len(seen), len(formats))
		}
		for fp, objs := range seen {
			if len(objs) != 1 {
				t.Errorf("fingerprint %016x: %d format objects, want 1", fp, len(objs))
			}
		}
	}
}

// TestRegisterLeavesXformsAlone: a client's cache entries name the same
// format objects its other entries hold, and Register never writes through
// the caller's Xforms, which other goroutines keep reading while Register
// and the watch stream run.
func TestRegisterLeavesXformsAlone(t *testing.T) {
	_, addr := startDaemon(t)
	c := NewClient(addr)
	defer c.Close()
	if err := c.Watch(); err != nil {
		t.Fatal(err)
	}
	formats, xforms := churnLineage(t, 6)
	if err := c.Register(formats[0]); err != nil {
		t.Fatal(err)
	}

	// The caller's transforms are fresh Xforms over formats decoded from
	// their encodings, so the cache gets objects it did not build itself.
	type snap struct {
		from, to *pbio.Format
		code     string
	}
	var owned []*core.Xform
	var before []snap
	for i := 1; i < len(formats); i++ {
		for _, x := range xforms[i] {
			from, err := pbio.DecodeFormat(pbio.EncodeFormat(x.From))
			if err != nil {
				t.Fatal(err)
			}
			to, err := pbio.DecodeFormat(pbio.EncodeFormat(x.To))
			if err != nil {
				t.Fatal(err)
			}
			y := &core.Xform{From: from, To: to, Code: x.Code}
			owned = append(owned, y)
			before = append(before, snap{y.From, y.To, y.Code})
		}
		// Aliasing owned, so a write into the caller's slice shows too.
		xforms[i] = owned[len(owned)-len(xforms[i]):]
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				for _, x := range owned {
					_ = x.From.Fingerprint() + x.To.Fingerprint() + uint64(len(x.Code))
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 1; i < len(formats); i++ {
				if err := c.Register(formats[i], xforms[i]...); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	for i, x := range owned {
		if (snap{x.From, x.To, x.Code}) != before[i] {
			t.Errorf("transform %d was modified by Register", i)
		}
	}
	// One object per format: the cache's transforms name its own entries'
	// formats.
	k := &c.peers[0].cache
	for i := 1; i < len(formats); i++ {
		_, cached, err := c.ResolveFormat(formats[i].Fingerprint())
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range cached {
			k.mu.Lock()
			from, to := k.lru[x.From.Fingerprint()], k.lru[x.To.Fingerprint()]
			held := from != nil && to != nil && x.From == from.format && x.To == to.format
			k.mu.Unlock()
			if !held {
				t.Errorf("generation %d: a cached transform names a format the cache does not hold", i)
			}
		}
	}
}
