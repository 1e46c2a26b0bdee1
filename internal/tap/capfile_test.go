package tap

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/pbio"
	"repro/internal/spool"
	"repro/internal/trace"
	"repro/internal/wire"
)

// roundTripCapture exports seedTap plus a closed registry connection that
// also kept a format frame, returning the .morphcap bytes and the closed
// connection's ID.
func roundTripCapture(t testing.TB) ([]byte, uint64) {
	t.Helper()
	wt := seedTap(t)
	closedConn := wt.NewConn(Label{Proto: "registry", Role: "server", Peer: "x:1"})
	closedConn.CaptureFrame(wire.TapWrite, wire.FrameRegistry, []byte{9, 9}, trace.Context{})
	closedConn.CaptureFrame(wire.TapRead, wire.KindFormat, wire.AppendFormatFrame(nil, evFormat, nil), trace.Context{})
	closedConn.Close()

	var buf bytes.Buffer
	if err := WriteCapture(&buf, wt.Snapshot()); err != nil {
		t.Fatalf("WriteCapture: %v", err)
	}
	return buf.Bytes(), closedConn.ID()
}

func TestCaptureRoundTripPreservesState(t *testing.T) {
	raw, closedID := roundTripCapture(t)
	c, err := ReadCapture(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadCapture: %v", err)
	}
	if c.Version != CaptureVersion || c.Truncated || c.Proc != "test" || c.Prefix != PrefixMax {
		t.Fatalf("header: version=%d truncated=%v proc=%q prefix=%d", c.Version, c.Truncated, c.Proc, c.Prefix)
	}
	if len(c.Conns) != 3 {
		t.Fatalf("%d conns, want 3", len(c.Conns))
	}
	byID := map[uint64]*CaptureConn{}
	for _, cc := range c.Conns {
		byID[cc.ID] = cc
	}
	reg := byID[closedID]
	if reg == nil || reg.Open || reg.Label.Proto != "registry" {
		t.Fatalf("closed registry conn round-tripped as %+v", reg)
	}
	if len(reg.Records) != 2 || reg.Records[0].Kind != wire.FrameRegistry {
		t.Fatalf("registry conn records: %+v", reg.Records)
	}
	if len(reg.Formats) != 1 {
		t.Fatalf("registry conn kept %d format frames, want 1", len(reg.Formats))
	}
	if f, _, err := wire.ParseFormatFrame(reg.Formats[0], false); err != nil || f.Fingerprint() != evFormat.Fingerprint() {
		t.Fatalf("format frame round-tripped as %v (%v)", f, err)
	}
	alpha := byID[1]
	if alpha.Label.Channel != "alpha" || !alpha.Open {
		t.Fatalf("conn 1 label: %+v open=%v", alpha.Label, alpha.Open)
	}
	// The seeded data frames carry fingerprint, trace ID and full payload.
	r := alpha.Records[0]
	if r.FP != evFormat.Fingerprint() || !r.Complete() || r.Dir != wire.TapRead {
		t.Fatalf("record fp=%016x complete=%v dir=%v", r.FP, r.Complete(), r.Dir)
	}
	if r.Trace != (trace.TraceID{0xAB, 0xCD}) {
		t.Fatalf("trace ID round-tripped as %x", r.Trace)
	}
}

// TestCaptureSkipsUnknownRecordTypes pins the forward-evolution rule: a
// capture written by a newer tap still decodes. A record of a format this
// reader does not know is skipped; a known record whose format gained a
// field converts name-wise, the extra field dropped.
func TestCaptureSkipsUnknownRecordTypes(t *testing.T) {
	wt := New(Config{Name: "fwd", Armed: true})
	ct := wt.NewConn(Label{Proto: "echo"})
	ct.CaptureFrame(wire.TapRead, wire.KindData, evBody(1), trace.Context{})

	var buf bytes.Buffer
	if err := WriteCapture(&buf, wt.Snapshot()); err != nil {
		t.Fatal(err)
	}
	future := wire.NewStreamConn(spool.Stream{W: &buf})
	unknown := pbio.MustFormat("morphcap.annotation", []pbio.Field{{Name: "note", Kind: pbio.String}})
	if err := future.WriteRecord(pbio.NewRecord(unknown).MustSet("note", pbio.Str("hi"))); err != nil {
		t.Fatal(err)
	}
	header := capTypes.FormatOf(capHeader{})
	newer := pbio.MustFormat(header.Name(), append(header.Fields(), pbio.Field{Name: "host", Kind: pbio.String}))
	rec := pbio.NewRecord(newer).
		MustSet("version", pbio.Uint(CaptureVersion+1)).
		MustSet("proc", pbio.Str("newer")).
		MustSet("host", pbio.Str("h1"))
	if err := future.WriteRecord(rec); err != nil {
		t.Fatal(err)
	}

	c, err := ReadCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadCapture with future records: %v", err)
	}
	if c.Truncated {
		t.Fatal("future record misread as torn tail")
	}
	if len(c.Conns) != 1 || len(c.Conns[0].Records) != 1 {
		t.Fatalf("decode lost data around the unknown record: %+v", c.Conns)
	}
	if c.Proc != "newer" || c.Version != CaptureVersion+1 {
		t.Fatalf("extended header read as proc=%q version=%d", c.Proc, c.Version)
	}
}

// TestCaptureRejectsGarbage: a malformed record inside a complete frame is
// an error, not a torn tail.
func TestCaptureRejectsGarbage(t *testing.T) {
	rec, err := capTypes.ToRecord(&capHeader{Version: CaptureVersion, Proc: "p"})
	if err != nil {
		t.Fatal(err)
	}
	data := pbio.EncodeRecord(rec)
	var buf bytes.Buffer
	conn := wire.NewStreamConn(spool.Stream{W: &buf})
	if err := conn.WriteEncoded(rec.Format(), data[:len(data)-1]); err != nil {
		t.Fatal(err)
	}
	c, err := ReadCapture(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrCapture) || !errors.Is(err, pbio.ErrShortMessage) {
		t.Fatalf("short header record: capture %+v, err %v; want ErrCapture", c, err)
	}
}

// TestCaptureRejectsVersion1: a version-1 file (hand-rolled records in
// capture control frames) fails by name instead of reading as empty.
func TestCaptureRejectsVersion1(t *testing.T) {
	var buf bytes.Buffer
	conn := wire.NewStreamConn(spool.Stream{W: &buf})
	// A version-1 header: record type 1, version 1, created-at, proc, prefix.
	if err := conn.WriteControl(wire.FrameCapture, []byte{1, 1, 0, 1, 'p', 64}); err != nil {
		t.Fatal(err)
	}
	_, err := ReadCapture(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrCapture) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("err = %v, want ErrCapture naming version 1", err)
	}
}
