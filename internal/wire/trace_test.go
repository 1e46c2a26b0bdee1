package wire

import (
	"testing"

	"repro/internal/pbio"
	"repro/internal/trace"
)

func tracePipePair(t *testing.T, txOpts, rxOpts []Option) (tx, rx *Conn) {
	t.Helper()
	fwd, back := newBufferPipe(), newBufferPipe()
	tx = NewConn(&bufferedConn{r: back, w: fwd}, txOpts...)
	rx = NewConn(&bufferedConn{r: fwd, w: back}, rxOpts...)
	return tx, rx
}

// writeTraced sends rec as a one-frame batch carrying tctx, the way a
// publisher sends a traced record.
func writeTraced(t *testing.T, tx *Conn, rec *pbio.Record, tctx trace.Context) {
	t.Helper()
	if err := tx.WriteEncodedBatchCtx([]BatchFrame{{Data: pbio.EncodeRecord(rec), Format: rec.Format(), Ctx: tctx}}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceContextPropagation: a sampled context written with its record
// must arrive out-of-band ahead of its data frame and be visible through
// TraceContext, with the receiver's frame_read span nested in the same trace.
func TestTraceContextPropagation(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{{Name: "x", Kind: pbio.Integer}})
	txTr := trace.New(trace.Config{Capacity: 64})
	rxTr := trace.New(trace.Config{Capacity: 64})
	tx, rx := tracePipePair(t, []Option{WithTracer(txTr)}, []Option{WithTracer(rxTr)})

	root := txTr.StartTrace(trace.StagePublish)
	writeTraced(t, tx, pbio.NewRecord(f).MustSet("x", pbio.Int(1)), root.Context())
	root.End()

	rec, err := rx.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rec.Get("x"); v.Int64() != 1 {
		t.Fatalf("record = %v", rec)
	}
	tctx := rx.TraceContext()
	if !tctx.Valid() || !tctx.Sampled {
		t.Fatalf("TraceContext = %+v, want sampled and valid", tctx)
	}
	if tctx.Trace != root.Context().Trace {
		t.Errorf("trace ID changed crossing the wire: %s vs %s", tctx.Trace, root.Context().Trace)
	}
	// The receiver traced the frame read, so downstream spans parent under
	// its frame_read span, not the sender's root.
	if tctx.Span == root.Context().Span {
		t.Error("receiver-side context must be the frame_read span, not the sender's root")
	}

	// Sender recorded publish/frame_write; receiver recorded frame_read.
	// (The encode span is the publisher's: echo's Publish records it.)
	txStages := map[trace.Stage]bool{}
	for _, r := range txTr.Snapshot() {
		txStages[r.Stage] = true
	}
	for _, want := range []trace.Stage{trace.StagePublish, trace.StageFrameWrite} {
		if !txStages[want] {
			t.Errorf("sender missing %v span", want)
		}
	}
	rxSpans := rxTr.Snapshot()
	if len(rxSpans) != 1 || rxSpans[0].Stage != trace.StageFrameRead {
		t.Fatalf("receiver spans = %+v, want one frame_read", rxSpans)
	}
	if rxSpans[0].Parent != root.Context().Span {
		t.Error("frame_read must parent under the announced wire context")
	}

	if ts, rs := tx.Stats(), rx.Stats(); ts.TraceFramesSent != 1 || rs.TraceFramesRecv != 1 {
		t.Errorf("trace frame counters: sent=%d recv=%d, want 1/1", ts.TraceFramesSent, rs.TraceFramesRecv)
	}
}

// TestTraceUnawareReceiver: the back-compat satellite. A tracing sender
// talking to a receiver with tracing off must exchange records exactly as
// before — the announced context still relays through TraceContext, so an
// untraced intermediary does not break the trace.
func TestTraceUnawareReceiver(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{{Name: "x", Kind: pbio.Integer}})
	txTr := trace.New(trace.Config{Capacity: 64})
	tx, rx := tracePipePair(t, []Option{WithTracer(txTr)}, nil) // rx: no tracer

	root := txTr.StartTrace(trace.StagePublish)
	for i := 0; i < 3; i++ {
		writeTraced(t, tx, pbio.NewRecord(f).MustSet("x", pbio.Int(int64(i))), root.Context())
	}
	root.End()

	for i := 0; i < 3; i++ {
		rec, err := rx.ReadRecord()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if v, _ := rec.Get("x"); v.Int64() != int64(i) {
			t.Fatalf("record %d = %v", i, rec)
		}
		// Relay semantics: the sender's context passes through verbatim.
		if tctx := rx.TraceContext(); tctx != root.Context() {
			t.Errorf("read %d: TraceContext = %+v, want the announced %+v", i, tctx, root.Context())
		}
	}
	st := rx.Stats()
	if st.TraceFramesRecv != 3 || st.UnknownFrames != 0 || st.CorruptFrames != 0 {
		t.Errorf("stats = %+v, want 3 trace frames, no unknown/corrupt", st)
	}
}

// TestUntracedWritesEmitNoTraceFrames: zero contexts (WriteRecord, or a
// batch frame with no context) must put nothing extra on the wire.
func TestUntracedWritesEmitNoTraceFrames(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{{Name: "x", Kind: pbio.Integer}})
	rxTr := trace.New(trace.Config{Capacity: 64})
	tx, rx := tracePipePair(t, nil, []Option{WithTracer(rxTr)})

	if err := tx.WriteRecord(pbio.NewRecord(f).MustSet("x", pbio.Int(9))); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.ReadRecord(); err != nil {
		t.Fatal(err)
	}
	if tctx := rx.TraceContext(); tctx.Valid() || tctx.Sampled {
		t.Errorf("TraceContext = %+v, want zero", tctx)
	}
	if ts := tx.Stats(); ts.TraceFramesSent != 0 {
		t.Errorf("TraceFramesSent = %d, want 0", ts.TraceFramesSent)
	}
	if rxTr.Total() != 0 {
		t.Errorf("receiver recorded %d spans from untraced traffic", rxTr.Total())
	}
}

// TestTraceContextClearedBetweenMessages: a traced message followed by an
// untraced one must not leak the first context onto the second data frame.
func TestTraceContextClearedBetweenMessages(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{{Name: "x", Kind: pbio.Integer}})
	txTr := trace.New(trace.Config{Capacity: 64})
	tx, rx := tracePipePair(t, []Option{WithTracer(txTr)}, nil)

	root := txTr.StartTrace(trace.StagePublish)
	writeTraced(t, tx, pbio.NewRecord(f).MustSet("x", pbio.Int(1)), root.Context())
	root.End()
	if err := tx.WriteRecord(pbio.NewRecord(f).MustSet("x", pbio.Int(2))); err != nil {
		t.Fatal(err)
	}

	if _, err := rx.ReadRecord(); err != nil {
		t.Fatal(err)
	}
	if !rx.TraceContext().Valid() {
		t.Fatal("first message lost its context")
	}
	if _, err := rx.ReadRecord(); err != nil {
		t.Fatal(err)
	}
	if tctx := rx.TraceContext(); tctx.Valid() {
		t.Errorf("second (untraced) message inherited context %+v", tctx)
	}
}

// TestWriteEncodedBatchRelay: the zero-copy forwarding path must announce the
// context it is handed, so fan-out servers keep traces alive without
// decoding anything.
func TestWriteEncodedBatchRelay(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{{Name: "x", Kind: pbio.Integer}})
	data := pbio.AppendRecord(nil, pbio.NewRecord(f).MustSet("x", pbio.Int(5)))

	txTr := trace.New(trace.Config{Capacity: 64})
	tx, rx := tracePipePair(t, nil, nil) // relay itself traces nothing
	root := txTr.StartTrace(trace.StagePublish)
	if err := tx.WriteEncodedBatchCtx([]BatchFrame{{Data: data, Format: f, Ctx: root.Context()}}); err != nil {
		t.Fatal(err)
	}
	root.End()

	body, got, err := rx.ReadEncoded()
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != f.Fingerprint() || len(body) != len(data) {
		t.Fatalf("forwarded %d bytes of %q", len(body), got.Name())
	}
	if tctx := rx.TraceContext(); tctx != root.Context() {
		t.Errorf("relayed context = %+v, want %+v", tctx, root.Context())
	}
}

// TestCorruptTraceFrame: a malformed trace context is a framing error, not
// something to guess around.
func TestCorruptTraceFrame(t *testing.T) {
	pipe := newBufferPipe()
	if _, err := pipe.Write(rawFrame(3 /* frameTrace */, []byte("short"))); err != nil {
		t.Fatal(err)
	}
	rx := NewConn(&bufferedConn{r: pipe, w: newBufferPipe()})
	if _, err := rx.ReadRecord(); err == nil {
		t.Fatal("corrupt trace frame must error")
	}
	if st := rx.Stats(); st.CorruptFrames != 1 {
		t.Errorf("CorruptFrames = %d, want 1", st.CorruptFrames)
	}
}
