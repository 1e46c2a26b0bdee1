package echo

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pbio"
)

// TestBrokerHoldsOneFormatPerFingerprint: three publishers announce one
// evolved format with its transform, each over its own connection, which
// decodes the announcement on its own. The broker still holds one object
// per fingerprint: the channel's meta-data entry keeps the first
// announcement's format and takes the last one's transforms, and all of
// them name the same format objects.
func TestBrokerHoldsOneFormatPerFingerprint(t *testing.T) {
	srv, addr := startServer(t)
	v1 := pbio.MustFormat("Tick", []pbio.Field{{Name: "n", Kind: pbio.Integer}})
	v2 := pbio.MustFormat("Tick", []pbio.Field{{Name: "count", Kind: pbio.Integer}, {Name: "src", Kind: pbio.String}})

	sink, err := Open(addr, "ticks", Options{Sink: true, Thresholds: &core.Thresholds{}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	received := make(chan struct{}, 3)
	if err := sink.Handle(v1, func(*pbio.Record) error { received <- struct{}{}; return nil }); err != nil {
		t.Fatal(err)
	}
	go func() { _ = sink.Run() }()

	for i := 0; i < 3; i++ {
		pub, err := Open(addr, "ticks", Options{Source: true})
		if err != nil {
			t.Fatal(err)
		}
		defer pub.Close()
		pub.Declare(v2, &core.Xform{From: v2, To: v1, Code: "old.n = new.count;"})
		if err := pub.Publish(pbio.NewRecord(v2).MustSet("count", pbio.Int(int64(i))).MustSet("src", pbio.Str("p"))); err != nil {
			t.Fatal(err)
		}
		// The event reaching the sink means the broker adopted this
		// publisher's announcement first.
		select {
		case <-received:
		case <-time.After(5 * time.Second):
			t.Fatalf("publisher %d: event not delivered", i)
		}
	}

	srv.mu.Lock()
	ch := srv.channels["ticks"]
	srv.mu.Unlock()
	em, ok := ch.metaSnapshot()[v2.Fingerprint()]
	if !ok || len(em.xforms) != 1 {
		t.Fatalf("channel meta-data for the evolved format: present = %v, %d transforms", ok, len(em.xforms))
	}
	byFP := map[uint64]map[*pbio.Format]bool{}
	for _, f := range []*pbio.Format{em.format, em.xforms[0].From, em.xforms[0].To} {
		if byFP[f.Fingerprint()] == nil {
			byFP[f.Fingerprint()] = map[*pbio.Format]bool{}
		}
		byFP[f.Fingerprint()][f] = true
	}
	if len(byFP[v2.Fingerprint()]) != 1 || len(byFP[v1.Fingerprint()]) != 1 {
		t.Errorf("broker holds %d objects for the evolved format and %d for the old one, want 1 each",
			len(byFP[v2.Fingerprint()]), len(byFP[v1.Fingerprint()]))
	}
}
