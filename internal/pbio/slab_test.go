package pbio_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ecode"
	"repro/internal/fleetgen"
	"repro/internal/pbio"
)

var protected = []pbio.Field{
	{Name: "src", Kind: pbio.Unsigned, Size: 8},
	{Name: "seq", Kind: pbio.Unsigned, Size: 8},
	{Name: "check", Kind: pbio.Unsigned, Size: 8},
}

// The benchmark's roster_morph publisher format: the ChannelOpenResponse
// v2.0 structure of the paper's Figure 4 behind the protected trio.
var (
	memberV2 = pbio.MustFormat("MemberV2", []pbio.Field{
		{Name: "info", Kind: pbio.String},
		{Name: "ID", Kind: pbio.Integer, Size: 4},
		{Name: "is_Source", Kind: pbio.Boolean},
		{Name: "is_Sink", Kind: pbio.Boolean},
	})
	rosterV2 = pbio.MustFormat("Roster", append(append([]pbio.Field(nil), protected...),
		pbio.Field{Name: "member_count", Kind: pbio.Integer, Size: 4},
		pbio.Field{Name: "member_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: memberV2}},
	))
	// The benchmark's mixed_vintage publisher format.
	telemetry = pbio.MustFormat("telemetry", append(append([]pbio.Field(nil), protected...),
		pbio.Field{Name: "temp", Kind: pbio.Float, Size: 8},
		pbio.Field{Name: "pressure", Kind: pbio.Float, Size: 8},
		pbio.Field{Name: "rpm", Kind: pbio.Integer, Size: 4},
		pbio.Field{Name: "volts", Kind: pbio.Float, Size: 8},
		pbio.Field{Name: "amps", Kind: pbio.Float, Size: 8},
		pbio.Field{Name: "status", Kind: pbio.Integer, Size: 4},
		pbio.Field{Name: "uptime", Kind: pbio.Unsigned, Size: 8},
		pbio.Field{Name: "errs", Kind: pbio.Integer, Size: 4},
	))
)

// roster builds a rosterV2 record of n members, half sources and half sinks.
func roster(rng *rand.Rand, n int) *pbio.Record {
	members := make([]pbio.Value, n)
	for i := range members {
		members[i] = pbio.RecordOf(pbio.NewRecord(memberV2).
			MustSet("info", pbio.Str(fmt.Sprintf("tcp://node-%05d.rack-%02d:%05d", rng.Intn(100000), rng.Intn(100), rng.Intn(100000)))).
			MustSet("ID", pbio.Int(rng.Int63n(1<<31))).
			MustSet("is_Source", pbio.Bool(i%2 == 0)).
			MustSet("is_Sink", pbio.Bool(i%4 < 2)))
	}
	return pbio.NewRecord(rosterV2).
		MustSet("src", pbio.Uint(rng.Uint64())).
		MustSet("member_count", pbio.Int(int64(n))).
		MustSet("member_list", pbio.ListOf(members))
}

func TestDecodeSlabAllocs(t *testing.T) {
	rec := roster(rand.New(rand.NewSource(1)), 28)
	payload := pbio.AppendPayload(nil, rec)
	var got *pbio.Record
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if got, err = pbio.DecodePayload(payload, rosterV2); err != nil {
			t.Fatal(err)
		}
	})
	if !got.Equal(rec) {
		t.Fatalf("decoded roster differs:\n got %v\nwant %v", got, rec)
	}
	// The top record, its values, the element array, the members' records
	// and their values, and the payload's one string copy.
	if allocs > 8 {
		t.Errorf("decoding a 28-member roster: %v allocs, want <= 8", allocs)
	}
}

func TestSlabNewRecord(t *testing.T) {
	var s pbio.Slab
	recs := make([]*pbio.Record, 3)
	if allocs := testing.AllocsPerRun(20, func() {
		s = pbio.Slab{}
		s.Reserve(rosterV2, len(recs))
		for i := range recs {
			recs[i] = s.NewRecord(rosterV2)
		}
	}); allocs > 2 { // one chunk of records, one of values
		t.Errorf("Reserve and 3 NewRecord: %v allocs, want <= 2", allocs)
	}
	// Past the reservation the slab grows by itself.
	for i := 0; i < 40; i++ {
		recs = append(recs, s.NewRecord(memberV2), s.NewRecord(telemetry))
	}
	for i, r := range recs {
		if want := pbio.NewRecord(r.Format()); !r.Equal(want) {
			t.Fatalf("record %d: %v, want %v", i, r, want)
		}
	}
	// Records from one slab stay independent.
	recs[0].MustSet("member_count", pbio.Int(5))
	if recs[1].GetIndex(3).Int64() != 0 {
		t.Error("slab records share field storage")
	}
}

// FuzzDecodePayload feeds arbitrary bytes to the decoder as a Roster v2,
// telemetry or fleetgen payload. It must return an error or a record, never
// panic; a record must own its memory (the input is clobbered afterwards),
// re-encode to the input bytes (a non-zero boolean byte reads as true, so
// it re-encodes as 1), and Equal its Clone.
//
// Each input is also delivered to a Morpher whose record handler has the
// payload decoded straight through a conversion plan: the Roster reordered
// at both levels, telemetry cut to a subset with one field widened, and the
// fleetgen generation lowered to its lineage's generation 0 through a move
// plan. The delivery must fail exactly when DecodePayload fails, and
// otherwise hand over what converting the decoded record builds: Convert
// for the name-wise plans, the transform's Ecode run for the move plan.
func FuzzDecodePayload(f *testing.F) {
	lin, err := fleetgen.NewLineage("fuzz", 7, 7, 9)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := lin.Evolve(); err != nil {
			f.Fatal(err)
		}
	}
	formats := []*pbio.Format{rosterV2, telemetry, lin.Latest().Format}
	lowered, err := fleetgen.XformBetween(lin.Latest(), lin.Generations()[0])
	if err != nil {
		f.Fatal(err)
	}
	planned := []*plannedSink{
		newPlannedSink(f, rosterV2, rosterReordered, nil),
		newPlannedSink(f, telemetry, telemetrySubset, nil),
		newPlannedSink(f, lowered.From, lowered.To, lowered),
	}

	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 28} {
		f.Add(uint8(0), pbio.AppendPayload(nil, roster(rng, n)))
	}
	tel := pbio.NewRecord(telemetry).MustSet("temp", pbio.Float64(21.5)).MustSet("rpm", pbio.Int(-7))
	f.Add(uint8(1), pbio.AppendPayload(nil, tel))
	f.Add(uint8(2), pbio.AppendPayload(nil, lin.Latest().NewRecord(42)))

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		fm := formats[int(which)%len(formats)]
		in := bytes.Clone(data)
		rec, err := pbio.DecodePayload(data, fm)
		ps := planned[int(which)%len(planned)]
		got, perr := ps.deliver(data)
		if (err == nil) != (perr == nil) {
			t.Fatalf("DecodePayload error %v, planned decode error %v", err, perr)
		}
		if err != nil {
			return
		}
		for i := range data {
			data[i] = 0xA5
		}
		if want := ps.want(t, rec); !got.Equal(want) {
			t.Fatalf("planned decode %v, converting the decoded record %v", got, want)
		}
		out := pbio.AppendPayload(nil, rec)
		if len(out) != len(in) {
			t.Fatalf("re-encoded to %d bytes, input was %d", len(out), len(in))
		}
		for i := range out {
			if out[i] != in[i] && !(out[i] == 1 && in[i] > 1) {
				t.Fatalf("re-encoding differs at byte %d: %#x, input %#x", i, out[i], in[i])
			}
		}
		if !rec.Equal(rec.Clone()) {
			t.Fatalf("record does not Equal its Clone: %v", rec)
		}
	})
}

var (
	memberReordered = pbio.MustFormat("MemberV2", []pbio.Field{
		{Name: "ID", Kind: pbio.Integer, Size: 4},
		{Name: "is_Sink", Kind: pbio.Boolean},
		{Name: "info", Kind: pbio.String},
		{Name: "is_Source", Kind: pbio.Boolean},
	})
	rosterReordered = pbio.MustFormat("Roster", append(append([]pbio.Field(nil), protected...),
		pbio.Field{Name: "member_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: memberReordered}},
		pbio.Field{Name: "member_count", Kind: pbio.Integer, Size: 4},
	))
	// A width change keeps the telemetry subset off the splice lane.
	telemetrySubset = pbio.MustFormat("telemetry", append(append([]pbio.Field(nil), protected...),
		pbio.Field{Name: "rpm", Kind: pbio.Integer, Size: 8},
		pbio.Field{Name: "temp", Kind: pbio.Float, Size: 8},
		pbio.Field{Name: "status", Kind: pbio.Integer, Size: 4, Default: pbio.Int(-1)},
		pbio.Field{Name: "note", Kind: pbio.String, Default: pbio.Str("n/a")},
	))
)

// plannedSink is a Morpher whose record handler takes payloads of from as
// records of to, by name or through x.
type plannedSink struct {
	from, to *pbio.Format
	m        *core.Morpher
	conv     *core.Converter // name-wise reference
	prog     *ecode.Program  // x's reference
	got      *pbio.Record
}

func newPlannedSink(f *testing.F, from, to *pbio.Format, x *core.Xform) *plannedSink {
	ps := &plannedSink{from: from, to: to, m: core.NewMorpher(core.Thresholds{Diff: math.MaxInt32, Mismatch: 1})}
	if err := ps.m.RegisterFormat(to, func(r *pbio.Record) error {
		ps.got = r
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	if x == nil {
		ps.conv = core.NewConverter(from, to)
		return ps
	}
	if err := ps.m.AddTransform(x); err != nil {
		f.Fatal(err)
	}
	ex, err := ps.m.Explain(from)
	if err != nil || ex.ChainLen != 1 || ex.Lowered != 1 {
		f.Fatalf("Explain = %+v, %v; want one lowered step", ex, err)
	}
	if ps.prog, err = ecode.Compile(x.Code,
		ecode.Param{Name: core.SrcParam, Format: x.From},
		ecode.Param{Name: core.DstParam, Format: x.To}); err != nil {
		f.Fatal(err)
	}
	return ps
}

// deliver hands payload, enveloped, to the Morpher and returns the record
// its handler got.
func (ps *plannedSink) deliver(payload []byte) (*pbio.Record, error) {
	ps.got = nil
	msg := binary.LittleEndian.AppendUint64(make([]byte, 0, pbio.EnvelopeSize+len(payload)), ps.from.Fingerprint())
	err := ps.m.DeliverEncoded(append(msg, payload...), ps.from)
	return ps.got, err
}

// want converts rec, a record of from, to what the handler must get.
func (ps *plannedSink) want(t *testing.T, rec *pbio.Record) *pbio.Record {
	if ps.conv != nil {
		out, err := ps.conv.Convert(rec)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	out := pbio.NewRecord(ps.to)
	if _, err := ps.prog.Run(rec, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzDecodeFormat feeds arbitrary bytes to the format-blob decoder, the
// parser every format control frame and registry entry goes through. It
// must return an error or a format, never panic; a format must re-encode
// to a blob that decodes to the same fingerprint.
func FuzzDecodeFormat(f *testing.F) {
	lin, err := fleetgen.NewLineage("fuzz", 7, 7, 9)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := lin.Evolve(); err != nil {
			f.Fatal(err)
		}
	}
	for _, g := range lin.Generations() {
		f.Add(pbio.EncodeFormat(g.Format))
	}
	f.Add(pbio.EncodeFormat(rosterV2))
	f.Add(pbio.EncodeFormat(telemetry))

	f.Fuzz(func(t *testing.T, blob []byte) {
		fm, err := pbio.DecodeFormat(blob)
		if err != nil {
			return
		}
		again, err := pbio.DecodeFormat(pbio.EncodeFormat(fm))
		if err != nil {
			t.Fatalf("re-encoded format does not decode: %v\n%v", err, fm)
		}
		if again.Fingerprint() != fm.Fingerprint() {
			t.Fatalf("fingerprint %016x re-decodes as %016x\n%v", fm.Fingerprint(), again.Fingerprint(), fm)
		}
	})
}
