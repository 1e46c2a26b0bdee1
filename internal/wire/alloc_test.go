package wire_test

import (
	"bytes"
	"testing"

	"repro/internal/pbio"
	"repro/internal/tap"
	"repro/internal/wire"
)

// loopStream is a same-goroutine in-memory stream: what one Conn writes the
// other reads back, with no scheduler in between.
type loopStream struct{ bytes.Buffer }

func (*loopStream) Close() error { return nil }

// TestEncodedRoundTripAllocs: a steady-state WriteEncoded → ReadEncoded
// round trip allocates nothing per frame, and attaching a disarmed flight
// recorder to both ends does not change that — the count every tapped
// production connection pays. (An external test so it can use the real
// tap.ConnTap, which imports this package.)
func TestEncodedRoundTripAllocs(t *testing.T) {
	f := pbio.MustFormat("sample", []pbio.Field{
		{Name: "seq", Kind: pbio.Unsigned, Size: 8},
		{Name: "value", Kind: pbio.Float, Size: 8},
	})
	data := pbio.EncodeRecord(pbio.NewRecord(f).MustSet("seq", pbio.Uint(1)).MustSet("value", pbio.Float64(3.14)))
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
		roundTrip := func() {
			if err := tx.WriteEncoded(f, data); err != nil {
				t.Fatal(err)
			}
			if _, _, err := rx.ReadEncoded(); err != nil {
				t.Fatal(err)
			}
		}
		roundTrip() // the first frame carries the format; measure steady state
		if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
			t.Errorf("%s: %.1f allocs/frame, want 0", tc.name, allocs)
		}
	}
	if s := disarmed.Snapshot(); len(s.Conns) != 2 || len(s.Conns[0].Records)+len(s.Conns[1].Records) != 0 {
		t.Errorf("disarmed tap recorded frames: %+v", s.Conns)
	}
}
