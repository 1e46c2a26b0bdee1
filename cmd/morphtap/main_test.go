package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pbio"
	"repro/internal/tap"
	"repro/internal/wire"
)

var (
	tickV2 = pbio.MustFormat("Tick", []pbio.Field{
		{Name: "symbol", Kind: pbio.String},
		{Name: "dollars", Kind: pbio.Float},
		{Name: "volume", Kind: pbio.Integer},
	})
	tickV1 = pbio.MustFormat("Tick", []pbio.Field{
		{Name: "symbol", Kind: pbio.String},
		{Name: "cents", Kind: pbio.Integer},
	})
)

const tickXform = `old.symbol = new.symbol; old.cents = new.dollars * 100.0;`

// runSession drives a live tapped wire session: a publisher declares tickV2
// (with the V2→V1 transform attached) and publishes n events; the receiver's
// morphing engine consumes them encoded, writing each delivered message as
// [uvarint length][bytes] — the exact framing replay() emits. Returns the
// receiver's live output and the tap holding the capture.
func runSession(t *testing.T, n int) (live []byte, wt *tap.Tap) {
	t.Helper()
	var liveBuf bytes.Buffer
	var scratch []byte
	m := core.NewMorpher(core.DefaultThresholds)
	if err := m.RegisterFormatEncoded(tickV2, func(data []byte, f *pbio.Format) error {
		scratch = binary.AppendUvarint(scratch[:0], uint64(len(data)))
		liveBuf.Write(scratch)
		liveBuf.Write(data)
		return nil
	}); err != nil {
		t.Fatalf("RegisterFormatEncoded: %v", err)
	}

	wt = tap.New(tap.Config{Name: "morphtap-test", Armed: true, Prefix: tap.PrefixMax})
	ct := wt.NewConn(tap.Label{Proto: "echo", Channel: "ticks", Role: "sink", Peer: "pipe"})

	a, b := net.Pipe()
	tx := wire.NewConn(a)
	rx := wire.NewConn(b, wire.WithMorpher(m), wire.WithFrameTap(ct))
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = rx.Serve() // ends with the pipe close; the error is expected
	}()

	tx.Declare(tickV2, &core.Xform{From: tickV2, To: tickV1, Code: tickXform})
	for i := 0; i < n; i++ {
		rec := pbio.NewRecord(tickV2).
			MustSet("symbol", pbio.Str("ACME")).
			MustSet("dollars", pbio.Float64(12.5+float64(i))).
			MustSet("volume", pbio.Int(int64(100*(i+1))))
		if err := tx.WriteRecord(rec); err != nil {
			t.Fatalf("WriteRecord %d: %v", i, err)
		}
	}
	_ = tx.Close()
	<-done
	_ = rx.Close()
	ct.Close()
	return liveBuf.Bytes(), wt
}

func exportCapture(t *testing.T, wt *tap.Tap) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tap.WriteCapture(&buf, wt.Snapshot()); err != nil {
		t.Fatalf("WriteCapture: %v", err)
	}
	return buf.Bytes()
}

func reload(t *testing.T, raw []byte) *capFile {
	t.Helper()
	c, err := tap.ReadCapture(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadCapture: %v", err)
	}
	return &capFile{path: "mem.morphcap", proc: c.Proc, cap: c}
}

// TestMorphtapRoundTrip is the flight recorder's end-to-end: live session →
// capture export → offline decode → replay, with the replayed delivery
// stream byte-identical to what the live receiver's handler consumed.
func TestMorphtapRoundTrip(t *testing.T) {
	const n = 5
	live, wt := runSession(t, n)
	if len(live) == 0 {
		t.Fatal("live session delivered nothing")
	}
	cf := reload(t, exportCapture(t, wt))
	if cf.cap.Truncated {
		t.Fatal("clean capture decoded as truncated")
	}
	if cf.cap.Proc != "morphtap-test" {
		t.Fatalf("capture proc = %q", cf.cap.Proc)
	}

	table := buildTable([]*capFile{cf}, nil)
	if table[tickV2.Fingerprint()] == nil {
		t.Fatalf("format table missing tickV2 (%016x); have %d entries",
			tickV2.Fingerprint(), len(table))
	}
	if got := len(table[tickV2.Fingerprint()].xforms); got != 1 {
		t.Fatalf("tickV2 carried %d xforms, want 1", got)
	}

	events := timeline([]*capFile{cf}, tap.Filter{})
	var got bytes.Buffer
	delivered, skipped, err := replay(events, table, "", &got)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if delivered != n || skipped != 0 {
		t.Fatalf("replay delivered %d skipped %d, want %d/0", delivered, skipped, n)
	}
	if !bytes.Equal(got.Bytes(), live) {
		t.Fatalf("replay output differs from live delivery:\nlive   %d bytes\nreplay %d bytes",
			len(live), got.Len())
	}
}

// TestMorphtapReplayMorphs replays the same capture with -to narrowing the
// target to the old format: every V2 frame must cross the captured transform
// and come out as decodable V1 records — offline reproduction of a
// down-level sink's view.
func TestMorphtapReplayMorphs(t *testing.T) {
	const n = 4
	_, wt := runSession(t, n)
	cf := reload(t, exportCapture(t, wt))
	table := buildTable([]*capFile{cf}, nil)
	events := timeline([]*capFile{cf}, tap.Filter{})

	var got bytes.Buffer
	delivered, skipped, err := replay(events, table, fmt.Sprintf("%016x", tickV1.Fingerprint()), &got)
	if err != nil {
		t.Fatalf("replay -to v1 fp: %v", err)
	}
	if delivered != n || skipped != 0 {
		t.Fatalf("replay delivered %d skipped %d, want %d/0", delivered, skipped, n)
	}
	out := got.Bytes()
	for i := 0; i < n; i++ {
		ln, nn := binary.Uvarint(out)
		if nn <= 0 || uint64(len(out)-nn) < ln {
			t.Fatalf("frame %d: bad length prefix", i)
		}
		rec, err := pbio.DecodeRecord(out[nn:nn+int(ln)], tickV1)
		if err != nil {
			t.Fatalf("frame %d: decode as tickV1: %v", i, err)
		}
		cents, _ := rec.Get("cents")
		if want := int64((12.5 + float64(i)) * 100); cents.Int64() != want {
			t.Fatalf("frame %d: cents = %d, want %d", i, cents.Int64(), want)
		}
		out = out[nn+int(ln):]
	}
	if len(out) != 0 {
		t.Fatalf("%d trailing bytes after %d frames", len(out), n)
	}

	// An unknown target format is an error, not an empty replay.
	if _, _, err := replay(events, table, "NoSuchFormat", &got); err == nil {
		t.Fatal("replay to unknown format succeeded")
	}
}

// TestMorphtapTornCaptures feeds the decoder every truncation point of a
// valid capture: each must decode without error — spool-style torn-tail
// tolerance — never reporting more frame records than the full file holds.
func TestMorphtapTornCaptures(t *testing.T) {
	_, wt := runSession(t, 3)
	raw := exportCapture(t, wt)
	full, err := tap.ReadCapture(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("full ReadCapture: %v", err)
	}
	fullRecs := 0
	for _, cc := range full.Conns {
		fullRecs += len(cc.Records)
	}
	for cut := 0; cut < len(raw); cut++ {
		c, err := tap.ReadCapture(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatalf("cut %d/%d: %v", cut, len(raw), err)
		}
		recs := 0
		for _, cc := range c.Conns {
			recs += len(cc.Records)
		}
		if recs > fullRecs {
			t.Fatalf("cut %d: %d records, full file has %d", cut, recs, fullRecs)
		}
	}
}

// TestMorphtapTimelineText smoke-checks the human rendering: decoded fields
// appear for fully-captured data frames and the filter narrows by kind.
func TestMorphtapTimelineText(t *testing.T) {
	_, wt := runSession(t, 2)
	cf := reload(t, exportCapture(t, wt))
	table := buildTable([]*capFile{cf}, nil)

	var b strings.Builder
	writeTimeline(&b, []*capFile{cf}, timeline([]*capFile{cf}, tap.Filter{}), table)
	out := b.String()
	for _, want := range []string{"Tick{", "symbol: \"ACME\"", "echo/ticks/sink", "fp="} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline output missing %q:\n%s", want, out)
		}
	}

	filt, err := tap.ParseFilter(url.Values{"kind": {"data"}})
	if err != nil {
		t.Fatalf("ParseFilter: %v", err)
	}
	only := timeline([]*capFile{cf}, filt)
	if len(only) != 2 {
		t.Fatalf("kind=data filter kept %d events, want 2", len(only))
	}
	for _, ev := range only {
		if ev.rec.Kind != wire.KindData {
			t.Fatalf("filter leaked kind %d", ev.rec.Kind)
		}
	}
}
