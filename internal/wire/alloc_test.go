package wire_test

import (
	"bytes"
	"testing"

	"repro/internal/pbio"
	"repro/internal/tap"
	"repro/internal/trace"
	"repro/internal/wire"
)

// loopStream is a same-goroutine in-memory stream: what one Conn writes the
// other reads back, with no scheduler in between.
type loopStream struct{ bytes.Buffer }

func (*loopStream) Close() error { return nil }

// TestEncodedRoundTripAllocs: a steady-state encoded round trip allocates
// nothing per frame on either entry point of the one write path — WriteEncoded
// (a batch of one built on the stack) and a two-frame WriteEncodedBatchCtx —
// and attaching a disarmed flight recorder to both ends does not change that:
// the count every tapped production connection pays. A sampled context still
// puts its trace frame immediately ahead of its data frame, alone or in a
// batch. (An external test so it can use the real
// tap.ConnTap, which imports this package.)
func TestEncodedRoundTripAllocs(t *testing.T) {
	f := pbio.MustFormat("sample", []pbio.Field{
		{Name: "seq", Kind: pbio.Unsigned, Size: 8},
		{Name: "value", Kind: pbio.Float, Size: 8},
	})
	rec := pbio.NewRecord(f).MustSet("seq", pbio.Uint(1)).MustSet("value", pbio.Float64(3.14))
	data := pbio.EncodeRecord(rec)
	disarmed := tap.New(tap.Config{Name: "t"})

	for _, tc := range []struct {
		name string
		opts func() []wire.Option
	}{
		{"no tap", func() []wire.Option { return nil }},
		{"disarmed tap", func() []wire.Option {
			return []wire.Option{wire.WithFrameTap(disarmed.NewConn(tap.Label{Proto: "test"}))}
		}},
	} {
		pipe := &loopStream{}
		tx := wire.NewStreamConn(pipe, tc.opts()...)
		rx := wire.NewStreamConn(pipe, tc.opts()...)
		read := func(n int) {
			for i := 0; i < n; i++ {
				if _, _, err := rx.ReadEncoded(); err != nil {
					t.Fatal(err)
				}
			}
		}
		single := func() {
			if err := tx.WriteEncoded(f, data); err != nil {
				t.Fatal(err)
			}
			read(1)
		}
		batch := []wire.BatchFrame{{Data: data, Format: f}, {Data: data, Format: f}}
		pair := func() {
			if err := tx.WriteEncodedBatchCtx(batch); err != nil {
				t.Fatal(err)
			}
			read(2)
		}
		single() // the first frame carries the format; measure steady state
		if raceEnabled {
			pair() // still drive the path; the counts are only meaningful without -race
			continue
		}
		if allocs := testing.AllocsPerRun(200, single); allocs != 0 {
			t.Errorf("%s: WriteEncoded: %.1f allocs/frame, want 0", tc.name, allocs)
		}
		if allocs := testing.AllocsPerRun(200, pair); allocs != 0 {
			t.Errorf("%s: WriteEncodedBatchCtx: %.1f allocs per 2-frame batch, want 0", tc.name, allocs)
		}
	}
	if s := disarmed.Snapshot(); len(s.Conns) != 2 || len(s.Conns[0].Records)+len(s.Conns[1].Records) != 0 {
		t.Errorf("disarmed tap recorded frames: %+v", s.Conns)
	}

	// Frame order with a sampled context, alone and in a batch.
	sampled := trace.New(trace.Config{Capacity: 8, SampleEvery: 1}).StartTrace(trace.StagePublish).Context()
	armed := tap.New(tap.Config{Name: "order", Armed: true})
	tx := wire.NewStreamConn(&loopStream{}, wire.WithFrameTap(armed.NewConn(tap.Label{Proto: "test"})))
	if err := tx.WriteEncodedBatchCtx([]wire.BatchFrame{{Data: data, Format: f, Ctx: sampled}}); err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteEncodedBatchCtx([]wire.BatchFrame{
		{Data: data, Format: f},
		{Data: data, Format: f, Ctx: sampled},
	}); err != nil {
		t.Fatal(err)
	}
	var written []byte
	for _, r := range armed.Snapshot().Conns[0].Records {
		written = append(written, r.Kind)
	}
	want := []byte{wire.KindFormat, wire.KindTrace, wire.KindData, wire.KindData, wire.KindTrace, wire.KindData}
	if !bytes.Equal(written, want) {
		t.Errorf("frames written = %v, want %v (each trace frame immediately before its data frame)", written, want)
	}
}
