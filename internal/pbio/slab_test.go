package pbio_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/echo"
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
// panic; a record must own its memory (the bytes it was decoded from are
// clobbered afterwards), re-encode to the input bytes (a non-zero boolean
// byte reads as true, so it re-encodes as 1), and Equal its Clone.
//
// Each input is also delivered to a Morpher whose record handler has the
// payload decoded straight through a conversion plan: the Roster reordered
// at both levels, telemetry cut to a subset with one field widened, and the
// fleetgen generation lowered to its lineage's generation 0 through a move
// plan. The delivery must fail exactly when DecodePayload fails, and
// otherwise hand over what converting the decoded record builds: Convert
// for the name-wise plans, the transform's Ecode run for the move plan.
//
// Every input is delivered as a Roster v2 payload, too, to two Morphers
// that run Figure 5: one decodes the payload straight through the plan
// Figure 5 lowers to, the other runs a near miss of it on the VM, which
// decodes its input into memory it reuses from one delivery to the next.
// Each delivery must fail with DecodePayload's error when the payload does
// not decode, and otherwise fail with the program's error or hand over
// exactly what the program run on the decoded record does. One valid
// roster follows each input and must deliver exactly, so a failed decode
// cannot corrupt the next one; the record the input delivered must still
// be equal afterwards. The seeds include rosters whose count is below,
// past and at their list's length, and negative.
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
		newPlannedSink(f, rosterV2, rosterReordered, nil, 0),
		newPlannedSink(f, telemetry, telemetrySubset, nil, 0),
		newPlannedSink(f, lowered.From, lowered.To, lowered, 1),
	}
	figure5 := []*plannedSink{
		newPlannedSink(f, rosterV2, rosterV1, rosterFigure5, 1),
		newPlannedSink(f, rosterV2, rosterV1, rosterFigure5VM, 0),
	}

	rng := rand.New(rand.NewSource(1))
	valid := pbio.AppendPayload(nil, roster(rng, 5))
	validRec, err := pbio.DecodePayload(valid, rosterV2)
	if err != nil {
		f.Fatal(err)
	}
	validWant, err := figure5[0].run(validRec)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{0, 1, 3, 28} {
		f.Add(uint8(0), pbio.AppendPayload(nil, roster(rng, n)))
	}
	for _, count := range []int64{2, 9, 0, -1} {
		f.Add(uint8(0), pbio.AppendPayload(nil, roster(rng, 5).MustSet("member_count", pbio.Int(count))))
	}
	tel := pbio.NewRecord(telemetry).MustSet("temp", pbio.Float64(21.5)).MustSet("rpm", pbio.Int(-7))
	f.Add(uint8(1), pbio.AppendPayload(nil, tel))
	f.Add(uint8(2), pbio.AppendPayload(nil, lin.Latest().NewRecord(42)))

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		fm := formats[int(which)%len(formats)]
		// Decoded from a copy, which is clobbered afterwards: the fuzzing
		// engine's data must stay as it is.
		buf := bytes.Clone(data)
		rec, err := pbio.DecodePayload(buf, fm)
		ps := planned[int(which)%len(planned)]
		got, perr := ps.deliver(buf)
		if (err == nil) != (perr == nil) {
			t.Fatalf("DecodePayload error %v, planned decode error %v", err, perr)
		}
		asRoster, rerr := pbio.DecodePayload(buf, rosterV2)
		got5 := make([]*pbio.Record, len(figure5))
		err5 := make([]error, len(figure5))
		for k, fig := range figure5 {
			got5[k], err5[k] = fig.deliver(buf)
			if rerr != nil && (err5[k] == nil || err5[k].Error() != rerr.Error()) {
				t.Fatalf("DecodePayload error %v, Figure 5 delivery error %v", rerr, err5[k])
			}
			if gotValid, err := fig.deliver(valid); err != nil || !gotValid.Equal(validWant) {
				t.Fatalf("the valid roster after this input: error %v, delivered %v, want %v", err, gotValid, validWant)
			}
		}
		for i := range buf {
			buf[i] = 0xA5
		}
		if rerr == nil {
			want5, runErr := figure5[0].run(asRoster)
			for k := range figure5 {
				if (runErr == nil) != (err5[k] == nil) || runErr == nil && !got5[k].Equal(want5) ||
					runErr != nil && !strings.HasSuffix(err5[k].Error(), runErr.Error()) {
					t.Fatalf("Figure 5 delivered %v (error %v); the program run on the decoded roster built %v (error %v)",
						got5[k], err5[k], want5, runErr)
				}
			}
		}
		if err != nil {
			return
		}
		if want := ps.want(t, rec); !got.Equal(want) {
			t.Fatalf("planned decode %v, converting the decoded record %v", got, want)
		}
		out := pbio.AppendPayload(nil, rec)
		if len(out) != len(data) {
			t.Fatalf("re-encoded to %d bytes, input was %d", len(out), len(data))
		}
		for i := range out {
			if out[i] != data[i] && !(out[i] == 1 && data[i] > 1) {
				t.Fatalf("re-encoding differs at byte %d: %#x, input %#x", i, out[i], data[i])
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
	memberEntry = pbio.MustFormat("MemberEntry", []pbio.Field{
		{Name: "info", Kind: pbio.String},
		{Name: "ID", Kind: pbio.Integer, Size: 4},
	})
	entryList = func(name string) pbio.Field {
		return pbio.Field{Name: name, Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: memberEntry}}
	}
	// The benchmark's roster_morph Figure 5 sink format and transform.
	rosterV1 = pbio.MustFormat("Roster", append(append([]pbio.Field(nil), protected...),
		pbio.Field{Name: "member_count", Kind: pbio.Integer, Size: 4},
		entryList("member_list"),
		pbio.Field{Name: "src_count", Kind: pbio.Integer, Size: 4},
		entryList("src_list"),
		pbio.Field{Name: "sink_count", Kind: pbio.Integer, Size: 4},
		entryList("sink_list"),
	))
	rosterFigure5 = &core.Xform{From: rosterV2, To: rosterV1,
		Code: echo.Figure5Transform + "old.src = new.src; old.seq = new.seq; old.check = new.check;"}
	// A near miss of it, which reads the destination and so runs on the VM.
	rosterFigure5VM = &core.Xform{From: rosterV2, To: rosterV1, Code: rosterFigure5.Code + "old.src = old.src;"}
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

// newPlannedSink builds the sink, checking that x, if any, is one step of
// which lowered steps run as plans.
func newPlannedSink(f *testing.F, from, to *pbio.Format, x *core.Xform, lowered int) *plannedSink {
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
	if err != nil || ex.ChainLen != 1 || ex.Lowered != lowered {
		f.Fatalf("Explain = %+v, %v; want one step, %d lowered", ex, err, lowered)
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
	out, err := ps.run(rec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// run is x's program run on rec, a record of from.
func (ps *plannedSink) run(rec *pbio.Record) (*pbio.Record, error) {
	out := pbio.NewRecord(ps.to)
	_, err := ps.prog.Run(rec, out)
	return out, err
}

// FuzzDecodeFormat feeds arbitrary bytes to the format-blob decoder, the
// parser every format control frame and registry entry goes through. It
// must return an error or a format, never panic; a format must re-encode
// to a blob that decodes to the same fingerprint, and decoding an accepted
// blob twice must return one object.
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
		if twice, err := pbio.DecodeFormat(blob); err != nil || twice != fm {
			t.Fatalf("a second decode of an accepted blob: same object = %v, err = %v\n%v", twice == fm, err, fm)
		}
	})
}
