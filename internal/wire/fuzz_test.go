package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/fleetgen"
	"repro/internal/pbio"
	"repro/internal/trace"
)

// fuzzSeedStream captures a valid format+trace+data stream so the fuzzer
// starts from structure-aware inputs instead of pure noise.
func fuzzSeedStream(tb testing.TB) []byte {
	f, err := pbio.NewFormat("seed", []pbio.Field{
		{Name: "x", Kind: pbio.Integer, Size: 4},
		{Name: "s", Kind: pbio.String},
	})
	if err != nil {
		tb.Fatal(err)
	}
	pipe := newBufferPipe()
	tx := NewConn(&bufferedConn{r: newBufferPipe(), w: pipe}, WithTracer(trace.New(trace.Config{Capacity: 8})))
	tctx := trace.Context{Sampled: true}
	tctx.Trace[0], tctx.Span[0] = 1, 2
	rec := pbio.NewRecord(f).MustSet("x", pbio.Int(7)).MustSet("s", pbio.Str("hello"))
	if err := tx.WriteEncodedBatchCtx([]BatchFrame{{Data: pbio.EncodeRecord(rec), Format: f, Ctx: tctx}}); err != nil {
		tb.Fatal(err)
	}
	_ = pipe.Close()
	out, err := io.ReadAll(pipe)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// FuzzConnReadFrames throws arbitrary byte streams at the frame reader: any
// input must produce clean errors or records — never a panic, unbounded
// allocation, or pool corruption. cuts, when not empty, delivers the stream
// in pieces: Read i returns at most 1+c² bytes for c = cuts[i mod len(cuts)],
// so a piece ends anywhere from inside a header to past the 64 KiB read
// buffer. The limit lets frames up to 1 MiB through, so bodies larger than
// the read buffer are read too. Run with
// `go test -fuzz=FuzzConnReadFrames ./internal/wire/` to explore beyond the
// corpus.
func FuzzConnReadFrames(f *testing.F) {
	valid := fuzzSeedStream(f)
	var whole []byte // no cuts: the stream arrives in one Read
	f.Add(valid, whole)
	f.Add(valid[:len(valid)/2], whole)                                                  // truncated mid-stream
	f.Add(rawFrame(3, make([]byte, trace.ContextWireSize)), whole)                      // all-zero trace context
	f.Add(append(rawFrame(9, []byte("future")), valid...), whole)                       // unknown kind, then valid
	f.Add(rawFrame(0, nil), whole)                                                      // zero kind
	f.Add(rawFrame(2, []byte{1, 2, 3}), whole)                                          // short data envelope
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, whole)                   // oversized length header
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, whole)                   // oversized format frame length
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, whole) // 10-byte varint (overflow territory)
	f.Add([]byte{1, 0x80}, whole)                                                       // truncated varint
	f.Add(append(rawFrame(3, []byte("tiny")), valid...), whole)                         // corrupt trace frame
	f.Add(append(append([]byte{}, valid...), valid...), whole)                          // duplicate format frame
	f.Add(append(rawFrame(4, []byte{1, 2, 3, 4, 5, 6, 7, 8}), valid...), whole)         // format request for unknown fp
	f.Add(rawFrame(4, []byte("odd")), whole)                                            // malformed format request
	f.Add(append(rawFrame(5, []byte{1, 0, 9}), valid...), whole)                        // registry RPC kind with no hook

	// The same streams in cuts: a byte per Read, then pieces that straddle
	// headers, the 4 KiB buffer and the 64 KiB one, and a frame that does
	// not fit the 64 KiB buffer.
	f.Add(valid, []byte{0})
	f.Add(valid, []byte{1, 3, 0})
	f.Add(append(rawFrame(9, make([]byte, 4000)), valid...), []byte{63, 1})
	f.Add(append(rawFrame(9, make([]byte, 65530)), valid...), []byte{255, 2})
	f.Add(append(rawFrame(9, make([]byte, 1<<16)), valid...), []byte{200})
	f.Add(append(append([]byte{}, valid...), valid[:len(valid)-3]...), []byte{2})
	// A body over the read buffer, and a length claiming most of the 1 MiB
	// limit followed by 1 KiB of body: the large-frame path the limit lets
	// through.
	f.Add(append(rawFrame(9, make([]byte, 70<<10)), valid...), []byte{255, 40})
	f.Add(append(binary.AppendUvarint([]byte{2}, 1<<20-1), make([]byte, 1<<10)...), whole)

	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		r := io.Reader(bytes.NewReader(stream))
		if len(cuts) > 0 {
			i := 0
			r = &cutReader{b: stream, cut: func() int {
				c := int(cuts[i%len(cuts)])
				i++
				return 1 + c*c
			}}
		}
		m := core.NewMorpher(core.DefaultThresholds)
		conn := NewStreamConn(readStream{r},
			WithMorpher(m),
			WithMaxFrame(1<<20),
			WithTracer(trace.New(trace.Config{Capacity: 8})))

		// Bounded read loop: fuzz inputs are finite, but cap iterations
		// anyway so a reader bug that spins on bad input fails fast.
		for i := 0; i < 64; i++ {
			_, _, err := conn.ReadEncoded()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				// Any parse failure must be a typed wire error, not an
				// internal one escaping the frame layer.
				if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrFrameTooLarge) &&
					!errors.Is(err, ErrUnknownFormat) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("unexpected error type: %v", err)
				}
				return
			}
			_ = conn.TraceContext()
		}
	})
}

// FuzzFormatFrame fuzzes the format control frame body, the meta-data every
// receiver parses off the wire and the registry stores as its entries.
// ParseFormatFrame must never panic, and a body it accepts must survive
// AppendFormatFrame: the re-encoded body parses to the same format
// fingerprint and the same transforms (From, To and Code). A parsed
// transform's From or To is the frame's own format object exactly when
// their encodings are byte-equal.
func FuzzFormatFrame(f *testing.F) {
	l, err := fleetgen.NewLineage("wire.fuzz", 1, 1, 3)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Evolve(); err != nil {
			f.Fatal(err)
		}
	}
	gens := l.Generations()
	for i, g := range gens {
		var xforms []*core.Xform
		for _, to := range gens[:i] {
			x, err := fleetgen.XformBetween(g, to)
			if err != nil {
				f.Fatal(err)
			}
			xforms = append(xforms, x)
		}
		if i > 0 {
			// A transform into the announced format, out of another one.
			x, err := fleetgen.XformBetween(gens[0], g)
			if err != nil {
				f.Fatal(err)
			}
			xforms = append(xforms, x)
		}
		body := AppendFormatFrame(nil, g.Format, xforms)
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0})

	sameFormat := func(a, b *pbio.Format) bool { return a.Fingerprint() == b.Fingerprint() }
	f.Fuzz(func(t *testing.T, body []byte) {
		_, _, _ = ParseFormatFrame(body, true)
		fm, xforms, err := ParseFormatFrame(body, false)
		if err != nil {
			return
		}
		enc := pbio.EncodeFormat(fm)
		for i, x := range xforms {
			from, to := bytes.Equal(pbio.EncodeFormat(x.From), enc), bytes.Equal(pbio.EncodeFormat(x.To), enc)
			if (x.From == fm) != from || (x.To == fm) != to {
				t.Fatalf("transform %d: From shared = %v, To shared = %v, byte-equal = %v, %v",
					i, x.From == fm, x.To == fm, from, to)
			}
		}
		fm2, xforms2, err := ParseFormatFrame(AppendFormatFrame(nil, fm, xforms), false)
		if err != nil {
			t.Fatalf("re-encoded frame does not parse: %v", err)
		}
		if !sameFormat(fm, fm2) || len(xforms) != len(xforms2) {
			t.Fatalf("round trip: format %016x with %d transforms became %016x with %d",
				fm.Fingerprint(), len(xforms), fm2.Fingerprint(), len(xforms2))
		}
		for i, x := range xforms {
			y := xforms2[i]
			if !sameFormat(x.From, y.From) || !sameFormat(x.To, y.To) || x.Code != y.Code {
				t.Fatalf("round trip: transform %d changed", i)
			}
		}
	})
}
