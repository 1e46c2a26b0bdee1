package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/echo"
	"repro/internal/fleetgen"
	"repro/internal/pbio"
)

// A v2.0 roster reordered at both levels: what a record-lane sink that
// matches the roster name-wise registers.
var (
	memberReordered = pbio.MustFormat("MemberV2", []pbio.Field{
		{Name: "ID", Kind: pbio.Integer, Size: 4},
		{Name: "is_Sink", Kind: pbio.Boolean},
		{Name: "info", Kind: pbio.String},
		{Name: "is_Source", Kind: pbio.Boolean},
	})
	responseReordered = pbio.MustFormat("ChannelOpenResponse", []pbio.Field{
		{Name: "member_list", Kind: pbio.List, Elem: &pbio.Field{Kind: pbio.Complex, Sub: memberReordered}},
		{Name: "member_count", Kind: pbio.Integer, Size: 4},
	})
)

// roster is an enveloped v2.0 ChannelOpenResponse of n members.
func roster(n int) []byte {
	members := make([]pbio.Value, n)
	for i := range members {
		members[i] = pbio.RecordOf(pbio.NewRecord(echo.MemberV2Format).
			MustSet("info", pbio.Str(fmt.Sprintf("tcp://node-%05d.rack-%02d:%05d", 7*i, i%100, 1000+i))).
			MustSet("ID", pbio.Int(int64(i))).
			MustSet("is_Source", pbio.Bool(i%2 == 0)).
			MustSet("is_Sink", pbio.Bool(i%4 < 2)))
	}
	return pbio.EncodeRecord(pbio.NewRecord(echo.ResponseV2Format).
		MustSet("member_count", pbio.Int(int64(n))).
		MustSet("member_list", pbio.ListOf(members)))
}

// recordLaneCase is a warm Morpher whose deliveries of data take the record
// lane, and what they count.
type recordLaneCase struct {
	name                   string
	m                      *core.Morpher
	data                   []byte
	wire                   *pbio.Format
	handled                *int // handler invocations
	max                    float64
	transformed, converted bool
}

// recordLaneCases are the record lane's three planned shapes: a lowered
// fixed-stride transform and a name-wise reorder into record handlers, and
// a variable-width identity delivery to an encoded handler.
func recordLaneCases(t *testing.T) []recordLaneCase {
	lin, err := fleetgen.NewLineage("allocs", 7, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for range 12 {
		if _, err := lin.Evolve(); err != nil {
			t.Fatal(err)
		}
	}
	gen, base := lin.Latest(), lin.Generations()[0]
	x, err := fleetgen.XformBetween(gen, base)
	if err != nil {
		t.Fatal(err)
	}
	if !gen.Format.Layout().Fixed() {
		t.Fatalf("generation %d is not fixed-stride", gen.Index)
	}
	var cases []recordLaneCase
	for _, tc := range []struct {
		name                   string
		data                   []byte
		wire, reg              *pbio.Format
		encoded                bool
		xform                  *core.Xform
		max                    float64
		transformed, converted bool
	}{
		{"lowered fixed-stride transform, record handler", pbio.EncodeRecord(gen.NewRecord(977)),
			gen.Format, base.Format, false, x, 2, true, false},
		{"roster reordered, record handler", roster(28),
			echo.ResponseV2Format, responseReordered, false, nil, 6, false, true},
		{"roster as it came, encoded handler", roster(28),
			echo.ResponseV2Format, echo.ResponseV2Format, true, nil, 0, false, false},
	} {
		c := recordLaneCase{name: tc.name, m: core.NewMorpher(core.DefaultThresholds), data: tc.data, wire: tc.wire,
			handled: new(int), max: tc.max, transformed: tc.transformed, converted: tc.converted}
		if tc.encoded {
			err = c.m.RegisterFormatEncoded(tc.reg, func([]byte, *pbio.Format) error { *c.handled++; return nil })
		} else {
			err = c.m.RegisterFormat(tc.reg, func(*pbio.Record) error { *c.handled++; return nil })
		}
		if err != nil {
			t.Fatal(err)
		}
		if tc.xform != nil {
			if err := c.m.AddTransform(tc.xform); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.m.DeliverEncoded(c.data, c.wire); err != nil { // warm the decision cache
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	return cases
}

// TestRecordLaneAllocs pins what a warm record-lane delivery allocates,
// handler included, now that a decision's leading conversion runs inside
// the decoder:
//   - a lowered fixed-stride transform into a record handler builds only
//     its output record: 2 allocations (its records, its values), down
//     from 4 when the wire record was decoded first and then converted;
//   - a 28-member roster reordered name-wise into a record handler builds
//     the reordered roster alone: 6 allocations (top record and values, the
//     element array, the members' records and values, the one payload
//     copy its strings share), down from 11;
//   - the same roster delivered as it came to an encoded handler is
//     validated without building anything: 0 allocations, down from 6.
func TestRecordLaneAllocs(t *testing.T) {
	for _, c := range recordLaneCases(t) {
		t.Run(c.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(200, func() {
				if err := c.m.DeliverEncoded(c.data, c.wire); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.max {
				t.Errorf("%.1f allocs per delivery, want <= %.0f", allocs, c.max)
			}
			st := c.m.Stats()
			if st.SpliceMisses != st.Delivered || (st.Transformed == st.Delivered) != c.transformed ||
				(st.Converted == st.Delivered) != c.converted {
				t.Errorf("deliveries left the lane under test: %v", st)
			}
		})
	}
}

// TestRecordLaneRejectsWhatDecodeRejects: a record-lane delivery that
// decodes through a plan — one that skips fields, or every field — fails
// on exactly the truncated and bit-flipped messages DecodeRecord refuses,
// and never calls the handler for one.
func TestRecordLaneRejectsWhatDecodeRejects(t *testing.T) {
	for _, c := range recordLaneCases(t) {
		t.Run(c.name, func(t *testing.T) {
			var bad [][]byte
			for n := 0; n < len(c.data); n++ {
				bad = append(bad, c.data[:n])
			}
			for i := pbio.EnvelopeSize; i < len(c.data); i++ {
				for _, bit := range []byte{0x01, 0x80} {
					msg := append([]byte(nil), c.data...)
					msg[i] ^= bit
					bad = append(bad, msg)
				}
			}
			bad = append(bad, append(append([]byte(nil), c.data...), 0))
			rejected := 0
			for _, msg := range bad {
				*c.handled = 0
				_, decErr := pbio.DecodeRecord(msg, c.wire)
				err := c.m.DeliverEncoded(msg, c.wire)
				if (err == nil) != (decErr == nil) {
					t.Fatalf("message %x: delivery error %v, DecodeRecord error %v", msg, err, decErr)
				}
				if err != nil {
					rejected++
					if *c.handled != 0 {
						t.Fatalf("message %x: the handler ran for a message the delivery refused", msg)
					}
				}
			}
			if rejected < len(c.data) {
				t.Fatalf("only %d of %d corrupt messages refused", rejected, len(bad))
			}
		})
	}
}
