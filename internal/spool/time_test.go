package spool_test

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/fleetgen"
	"repro/internal/pbio"
	"repro/internal/spool"
	"repro/internal/wire"
)

// lineage builds a seeded fleetgen lineage of 21 generations.
func lineage(tb testing.TB, seed int64) *fleetgen.Lineage {
	tb.Helper()
	l, err := fleetgen.NewLineage("spool.time", 7, seed, 4)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Evolve(); err != nil {
			tb.Fatal(err)
		}
	}
	return l
}

// send is what a generation's writer puts on a stream, spooled or live: its
// format declared with the transform x, then recs in order.
func send(declare func(*pbio.Format, ...*core.Xform), put func(*pbio.Record) error, x *core.Xform, recs []*pbio.Record) error {
	declare(x.From, x)
	for _, rec := range recs {
		if err := put(rec); err != nil {
			return err
		}
	}
	return nil
}

// receiver is a Morpher registered only at one generation, recording the
// bytes of every delivery in order.
type receiver struct {
	m   *core.Morpher
	got [][]byte
}

func newReceiver(tb testing.TB, g *fleetgen.Generation) *receiver {
	tb.Helper()
	rx := &receiver{m: core.NewMorpher(core.DefaultThresholds)}
	err := rx.m.RegisterFormatEncoded(g.Format, func(data []byte, _ *pbio.Format) error {
		rx.got = append(rx.got, append([]byte(nil), data...))
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rx
}

// replay spools the stream and replays it into a receiver at generation to.
func replay(tb testing.TB, x *core.Xform, recs []*pbio.Record, to *fleetgen.Generation) (*receiver, wire.Stats) {
	tb.Helper()
	var buf bytes.Buffer
	w := spool.NewWriter(&buf)
	if err := send(w.Declare, w.Append, x, recs); err != nil {
		tb.Fatal(err)
	}
	rx := newReceiver(tb, to)
	r := spool.NewReader(&buf, wire.WithMorpher(rx.m))
	if err := r.Replay(); err != nil || r.Truncated() {
		tb.Fatalf("replay: %v (truncated %v)", err, r.Truncated())
	}
	return rx, r.Stats()
}

// live carries the same stream over a net.Pipe into a receiver at generation
// to, whose connection runs the live receive loop.
func live(tb testing.TB, x *core.Xform, recs []*pbio.Record, to *fleetgen.Generation) (*receiver, wire.Stats) {
	tb.Helper()
	a, b := net.Pipe()
	tx := wire.NewConn(a)
	sent := make(chan error, 1)
	go func() {
		err := send(tx.Declare, tx.WriteRecord, x, recs)
		_ = tx.Close()
		sent <- err
	}()
	rx := newReceiver(tb, to)
	c := wire.NewConn(b, wire.WithMorpher(rx.m))
	err := c.Serve()
	_ = c.Close()
	if serr := <-sent; err != nil || serr != nil {
		tb.Fatalf("live: serve %v, send %v", err, serr)
	}
	return rx, c.Stats()
}

// sameDeliveries fails unless the spooled and live receivers got the same
// bytes in the same order, and those bytes are wantSeqs' records of
// generation to, intact.
func sameDeliveries(tb testing.TB, spooled, onWire *receiver, to *fleetgen.Generation, wantSeqs []uint64) {
	tb.Helper()
	if len(spooled.got) != len(onWire.got) {
		tb.Fatalf("replay delivered %d records, the live connection %d", len(spooled.got), len(onWire.got))
	}
	for i := range spooled.got {
		if !bytes.Equal(spooled.got[i], onWire.got[i]) {
			tb.Fatalf("delivery %d: replay and live connection differ\nreplay %x\nlive   %x", i, spooled.got[i], onWire.got[i])
		}
	}
	if len(spooled.got) != len(wantSeqs) {
		tb.Fatalf("delivered %d records, want %d", len(spooled.got), len(wantSeqs))
	}
	for i, data := range spooled.got {
		rec, err := pbio.DecodeRecord(data, to.Format)
		if err != nil {
			tb.Fatalf("delivery %d: %v", i, err)
		}
		if _, seq, err := fleetgen.Verify(rec); err != nil || seq != wantSeqs[i] {
			tb.Fatalf("delivery %d: seq %d, want %d (%v)", i, seq, wantSeqs[i], err)
		}
	}
}

func genRecords(g *fleetgen.Generation, seqs []uint64) []*pbio.Record {
	recs := make([]*pbio.Record, len(seqs))
	for i, seq := range seqs {
		recs[i] = g.NewRecord(seq)
	}
	return recs
}

// TestMorphingAcrossTime is the paper's "separated in time" claim as a
// property over generated schema evolution: for every ordered pair (k, j) of
// generations of seeded lineages, a spool written at generation k with
// XformBetween(k, j) declared in the file replays into a Morpher registered
// only at generation j — no registry, no other transform source — and
// delivers exactly the bytes, in the same order, that a live connection
// carrying the same stream delivers into an identically registered Morpher.
func TestMorphingAcrossTime(t *testing.T) {
	seqs := []uint64{3, 1, 4, 1 << 40}
	pairs := 0
	for seed := int64(1); seed <= 3; seed++ {
		gens := lineage(t, seed).Generations()
		for _, from := range gens {
			recs := genRecords(from, seqs)
			for _, to := range gens {
				if from == to {
					continue
				}
				x, err := fleetgen.XformBetween(from, to)
				if err != nil {
					t.Fatal(err)
				}
				spooled, _ := replay(t, x, recs, to)
				onWire, _ := live(t, x, recs, to)
				sameDeliveries(t, spooled, onWire, to, seqs)
				// The spooled transform bridges every pair but those the
				// Morpher pairs name-wise with no difference (a reorder).
				want := uint64(len(seqs))
				if m, ok := core.MaxMatch([]*pbio.Format{from.Format}, []*pbio.Format{to.Format}, core.Thresholds{}, nil); ok && m.IsPerfect() {
					want = 0
				}
				if st := spooled.m.Stats(); st.Transformed != want {
					t.Fatalf("gen %d→%d: %d replayed records ran the spooled transform, want %d", from.Index, to.Index, st.Transformed, want)
				}
				pairs++
			}
		}
	}
	t.Logf("%d generation pairs", pairs)
}

// TestReplaySkipsRejects: a record no registered format can take, in the
// middle of a spool, is a per-record reject — skipped and counted, as on a
// live connection — and the routable records around it still arrive.
func TestReplaySkipsRejects(t *testing.T) {
	foreign := pbio.MustFormat("spool.foreign", []pbio.Field{{Name: "note", Kind: pbio.String}})
	for seed := int64(1); seed <= 3; seed++ {
		gens := lineage(t, seed).Generations()
		from, to := gens[len(gens)-1], gens[0]
		x, err := fleetgen.XformBetween(from, to)
		if err != nil {
			t.Fatal(err)
		}
		recs := genRecords(from, []uint64{1, 2, 3, 4})
		recs = append(recs[:2:2], append([]*pbio.Record{pbio.NewRecord(foreign).MustSet("note", pbio.Str("?"))}, recs[2:]...)...)

		spooled, spoolStats := replay(t, x, recs, to)
		onWire, liveStats := live(t, x, recs, to)
		sameDeliveries(t, spooled, onWire, to, []uint64{1, 2, 3, 4})
		for name, st := range map[string]wire.Stats{"replay": spoolStats, "live": liveStats} {
			if st.RejectedDeliveries != 1 {
				t.Errorf("seed %d: %s counted %d rejected deliveries, want 1", seed, name, st.RejectedDeliveries)
			}
		}
		if n := spooled.m.Stats().Rejected; n != 1 {
			t.Errorf("seed %d: replay morpher rejected %d, want 1", seed, n)
		}
	}
}
