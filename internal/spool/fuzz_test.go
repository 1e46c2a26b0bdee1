package spool_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/fleetgen"
	"repro/internal/pbio"
	"repro/internal/spool"
	"repro/internal/tap"
	"repro/internal/trace"
	"repro/internal/wire"
)

// captureSeed returns a .morphcap capture of two echo connections (data and
// trace frames) and a closed registry connection that kept a format frame.
func captureSeed(tb testing.TB) []byte {
	tb.Helper()
	ev := pbio.MustFormat("TapEv", []pbio.Field{{Name: "seq", Kind: pbio.Integer, Size: 8}})
	body := func(i int64) []byte { return pbio.EncodeRecord(pbio.NewRecord(ev).MustSet("seq", pbio.Int(i))) }
	wt := tap.New(tap.Config{Name: "test", Armed: true, Prefix: tap.PrefixMax})
	a := wt.NewConn(tap.Label{Proto: "echo", Channel: "alpha", Role: "sink", Peer: "1.2.3.4:1"})
	b := wt.NewConn(tap.Label{Proto: "echo", Channel: "beta", Role: "source", Peer: "1.2.3.4:2"})
	for i := 0; i < 3; i++ {
		a.CaptureFrame(wire.TapRead, wire.KindData, body(int64(i)), trace.Context{Trace: trace.TraceID{0xAB, 0xCD}})
	}
	a.CaptureFrame(wire.TapWrite, wire.KindTrace, []byte{1, 2, 3}, trace.Context{})
	b.CaptureFrame(wire.TapRead, wire.KindData, body(9), trace.Context{})
	closed := wt.NewConn(tap.Label{Proto: "registry", Role: "server", Peer: "x:1"})
	closed.CaptureFrame(wire.TapWrite, wire.FrameRegistry, []byte{9, 9}, trace.Context{})
	closed.CaptureFrame(wire.TapRead, wire.KindFormat, wire.AppendFormatFrame(nil, ev, nil), trace.Context{})
	closed.Close()

	var buf bytes.Buffer
	if err := tap.WriteCapture(&buf, wt.Snapshot()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// lineageSeed returns a spool of three generations of a fleetgen lineage,
// each declared with its transform to the base generation.
func lineageSeed(tb testing.TB) []byte {
	tb.Helper()
	gens := lineage(tb, 1).Generations()
	var buf bytes.Buffer
	w := spool.NewWriter(&buf)
	for i, g := range gens[1:4] {
		x, err := fleetgen.XformBetween(g, gens[0])
		if err != nil {
			tb.Fatal(err)
		}
		w.Declare(g.Format, x)
		for seq := uint64(0); seq < 2; seq++ {
			if err := w.Append(g.NewRecord(uint64(i)*2 + seq)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// readNext reads a spool with Next, counting records.
func readNext(data []byte) (n int, truncated bool, err error) {
	r := spool.NewReader(bytes.NewReader(data))
	for {
		_, err := r.Next()
		switch {
		case err == nil:
			n++
		case err == io.EOF:
			return n, false, nil
		case errors.Is(err, spool.ErrTruncated):
			return n, r.Truncated(), nil
		default:
			return n, false, err
		}
	}
}

// readCapture reads a spool as a capture, counting captured frames.
func readCapture(data []byte) (n int, truncated bool, err error) {
	c, err := tap.ReadCapture(bytes.NewReader(data))
	if err != nil {
		return 0, false, err
	}
	for _, cc := range c.Conns {
		n += len(cc.Records)
	}
	return n, c.Truncated, nil
}

// FuzzSpool feeds arbitrary bytes to the one reader of framed records on a
// byte stream, both as a spool (Reader.Next) and as a capture (every
// morphtap load and tapz download). It must return an error or a result,
// never panic; and every prefix of an input that reads cleanly reads too —
// whole, or with Truncated set — holding no more records than the whole.
func FuzzSpool(f *testing.F) {
	raw := captureSeed(f)
	for _, n := range []int{len(raw), len(raw) / 2, len(raw) / 3, 40, 20, 1, 0} {
		f.Add(raw[:n])
	}
	f.Add(lineageSeed(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, read := range map[string]func([]byte) (int, bool, error){"Next": readNext, "ReadCapture": readCapture} {
			whole, truncated, err := read(data)
			if err != nil || truncated {
				// Only a whole stream bounds its prefixes' frame lengths: a
				// torn one may claim a frame of up to wire.DefaultMaxFrame.
				continue
			}
			for cut := range data {
				n, _, err := read(data[:cut])
				if err != nil {
					t.Fatalf("%s: prefix %d/%d of a clean stream: %v", name, cut, len(data), err)
				}
				if n > whole {
					t.Fatalf("%s: prefix %d holds %d records, the whole stream %d", name, cut, n, whole)
				}
			}
		}
	})
}
