package registry

import (
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/fleetgen"
	"repro/internal/pbio"
	"repro/internal/wire"
)

// TestSubscriberHoldsOneFormatPerFingerprint: a subscriber whose publisher
// relies on the registry learns generation 2 of a lineage, with transforms
// to generations 0 and 1, through its registry client, adopts it on its
// connection and morphs it into the generation 0 it registered with its
// Morpher. The connection, the registry client's cache and the Morpher's
// decision hold one object per fingerprint between them.
func TestSubscriberHoldsOneFormatPerFingerprint(t *testing.T) {
	l, err := fleetgen.NewLineage("subscriber", 1, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.Evolve(); err != nil {
			t.Fatal(err)
		}
	}
	gens := l.Generations()
	var xforms []*core.Xform
	for _, to := range gens[:2] {
		x, err := fleetgen.XformBetween(gens[2], to)
		if err != nil {
			t.Fatal(err)
		}
		xforms = append(xforms, x)
	}

	_, addr := startDaemon(t)
	pubReg, subReg := NewClient(addr), NewClient(addr)
	defer pubReg.Close()
	defer subReg.Close()
	if err := pubReg.Register(gens[2].Format, xforms...); err != nil {
		t.Fatal(err)
	}

	var held []*pbio.Format
	note := func(fs ...*pbio.Format) { held = append(held, fs...) }
	m := core.NewMorpher(core.DefaultThresholds)
	if err := m.RegisterFormat(gens[0].Format, func(r *pbio.Record) error { note(r.Format()); return nil }); err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	tx := wire.NewConn(a, wire.WithFormatSuppressor(pubReg.Holds))
	rx := wire.NewConn(b, wire.WithMorpher(m), wire.WithResolver(subReg),
		wire.WithFormatHook(func(f *pbio.Format, xs []*core.Xform) {
			note(f)
			for _, x := range xs {
				note(x.From, x.To)
			}
		}))
	sent := make(chan error, 1)
	go func() { sent <- tx.WriteRecord(gens[2].NewRecord(1)) }()
	data, f, err := rx.ReadEncoded()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if rx.Stats().FormatsResolved != 1 {
		t.Fatalf("the subscriber resolved %d formats through the registry, want 1", rx.Stats().FormatsResolved)
	}
	if err := m.DeliverEncoded(data, f); err != nil {
		t.Fatal(err)
	}
	e, err := m.Explain(f)
	if err != nil || e.Rejected {
		t.Fatalf("Explain: %+v, %v", e, err)
	}
	note(f, e.Target)
	for fp, objs := range reachable(&subReg.peers[0].cache) {
		for o := range objs {
			if fp != o.Fingerprint() {
				t.Fatalf("cache object under %016x has fingerprint %016x", fp, o.Fingerprint())
			}
			note(o)
		}
	}

	objs := map[uint64]map[*pbio.Format]bool{}
	for _, o := range held {
		if objs[o.Fingerprint()] == nil {
			objs[o.Fingerprint()] = map[*pbio.Format]bool{}
		}
		objs[o.Fingerprint()][o] = true
	}
	for i, g := range gens {
		if n := len(objs[g.Format.Fingerprint()]); n != 1 {
			t.Errorf("generation %d: the subscriber holds %d objects, want 1", i, n)
		}
	}
}
