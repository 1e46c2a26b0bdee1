package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/echo"
	"repro/internal/ecode"
	"repro/internal/pbio"
)

// figure5VM is a near miss of Figure 5 that stores into a field twice, and
// so runs on the VM. Its last store changes nothing, and it comes after
// the loop: the program builds what Figure 5 builds, and fails where
// Figure 5 fails, with the same error.
var figure5VM = &core.Xform{From: figure5.From, To: figure5.To, Code: figure5.Code + "old.member_count = old.member_count;"}

// rosterWith is an enveloped v2.0 roster with one member per role: bit 0
// makes it a source and bit 1 a sink. Its count is count, whatever the
// list's length.
func rosterWith(count int64, roles ...byte) []byte {
	members := make([]pbio.Value, len(roles))
	for i, r := range roles {
		members[i] = pbio.RecordOf(pbio.NewRecord(echo.MemberV2Format).
			MustSet("info", pbio.Str(fmt.Sprintf("tcp://m%d", i))).
			MustSet("ID", pbio.Int(int64(100+i))).
			MustSet("is_Source", pbio.Bool(r&1 != 0)).
			MustSet("is_Sink", pbio.Bool(r&2 != 0)))
	}
	return pbio.EncodeRecord(pbio.NewRecord(echo.ResponseV2Format).
		MustSet("member_count", pbio.Int(count)).
		MustSet("member_list", pbio.ListOf(members)))
}

// figure5Sinks are four Morphers with v1.0 registered: Figure 5 lowered and
// its near miss on the VM, each into an encoded and into a record handler.
// deliver hands each of them a v2.0 message and returns the bytes each
// handler got, encoded, and each delivery's error.
type figure5Sinks struct {
	ms  [4]*core.Morpher
	got [4][]byte
}

func newFigure5Sinks(tb testing.TB) *figure5Sinks {
	tb.Helper()
	s := &figure5Sinks{}
	for i := range s.ms {
		m := core.NewMorpher(core.Thresholds{Diff: math.MaxInt32, Mismatch: 1})
		var err error
		if i%2 == 0 {
			err = m.RegisterFormatEncoded(echo.ResponseV1Format, func(d []byte, _ *pbio.Format) error {
				s.got[i] = append(s.got[i][:0], d...)
				return nil
			})
		} else {
			err = m.RegisterFormat(echo.ResponseV1Format, func(r *pbio.Record) error {
				s.got[i] = pbio.EncodeRecord(r)
				return nil
			})
		}
		if err != nil {
			tb.Fatal(err)
		}
		x, lowered := figure5, 1
		if i >= 2 {
			x, lowered = figure5VM, 0
		}
		if err := m.AddTransform(x); err != nil {
			tb.Fatal(err)
		}
		if ex, err := m.Explain(echo.ResponseV2Format); err != nil || ex.ChainLen != 1 || ex.Lowered != lowered {
			tb.Fatalf("Explain = %+v, %v; want one step, %d lowered", ex, err, lowered)
		}
		s.ms[i] = m
	}
	return s
}

// deliver hands data to every sink and checks that all four agree: the
// same error, or the same bytes. It returns those.
func (s *figure5Sinks) deliver(tb testing.TB, data []byte) ([]byte, error) {
	tb.Helper()
	var errs [4]error
	for i, m := range s.ms {
		s.got[i] = nil
		errs[i] = m.DeliverEncoded(data, echo.ResponseV2Format)
	}
	for i := 1; i < len(s.ms); i++ {
		if fmt.Sprint(errs[i]) != fmt.Sprint(errs[0]) || !bytes.Equal(s.got[i], s.got[0]) {
			tb.Fatalf("sinks disagree:\nlowered, encoded %v %x\nsink %d          %v %x", errs[0], s.got[0], i, errs[i], s.got[i])
		}
	}
	return s.got[0], errs[0]
}

// TestLoweredFigure5EdgeCases: the plan Figure 5 lowers to delivers what
// the VM delivers, to encoded and to record handlers, on rosters whose
// count is below, past and at their list's length, zero or negative,
// with no members or no sources and sinks; a count past the list's end
// fails with the program's runtime error, unless the payload does not
// decode, when the decoder's own error wins.
func TestLoweredFigure5EdgeCases(t *testing.T) {
	s := newFigure5Sinks(t)
	v1 := func(b []byte) *pbio.Record {
		r, err := pbio.DecodeRecord(b, echo.ResponseV1Format)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	lists := func(r *pbio.Record) [3]int {
		return [3]int{r.GetIndex(1).Len(), r.GetIndex(3).Len(), r.GetIndex(5).Len()}
	}
	for _, tc := range []struct {
		name  string
		data  []byte
		lists [3]int // members, sources, sinks
	}{
		{"count = length", rosterWith(4, 0, 1, 2, 3), [3]int{4, 2, 2}},
		{"count < length", rosterWith(2, 1, 0, 3, 3), [3]int{2, 1, 0}},
		{"count 0", rosterWith(0, 3, 3), [3]int{}},
		{"negative count", rosterWith(-4, 3), [3]int{}},
		{"no members", rosterWith(0), [3]int{}},
		{"no sources or sinks", rosterWith(3, 0, 0, 0), [3]int{3, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := s.deliver(t, tc.data)
			if err != nil {
				t.Fatal(err)
			}
			r := v1(got)
			if lists(r) != tc.lists || r.GetIndex(2).Int64() != int64(tc.lists[1]) || r.GetIndex(4).Int64() != int64(tc.lists[2]) {
				t.Fatalf("delivered %v; want %v members, sources and sinks, counted", r, tc.lists)
			}
		})
	}

	over := rosterWith(5, 1, 2, 3)
	if _, err := s.deliver(t, over); !errors.Is(err, ecode.ErrRuntime) {
		t.Fatalf("count past the list's end: %v, want the program's runtime error", err)
	}
	for name, bad := range map[string][]byte{
		"truncated":      over[:len(over)-1],
		"trailing bytes": append(bytes.Clone(over), 0),
	} {
		_, want := pbio.DecodeRecord(bad, echo.ResponseV2Format)
		if _, err := s.deliver(t, bad); want == nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("%s, count past the list's end: %v, want the decoder's %v", name, err, want)
		}
	}
}

// FuzzLoweredLoop builds rosters from its input — a count independent of
// the list's length, and members whose roles, IDs and contacts come from
// the bytes — and delivers each, and the bytes themselves as a payload,
// through the plan Figure 5 lowers to and through its near miss on the
// VM, to encoded and record handlers. Every delivery must agree with the
// others and with the program run offline on the decoded roster: the same
// bytes, or the program's runtime error where the run fails, or the
// decoder's error where the payload does not decode.
func FuzzLoweredLoop(f *testing.F) {
	s := newFigure5Sinks(f)
	prog, err := ecode.Compile(figure5.Code,
		ecode.Param{Name: core.SrcParam, Format: figure5.From}, ecode.Param{Name: core.DstParam, Format: figure5.To})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(3), []byte("\x01a\x02bb\x03ccc"))
	f.Add(int64(9), []byte("\x00\x00\x00\x00"))
	f.Add(int64(-1), []byte("\x03\xff"))
	f.Add(int64(0), rosterWith(2, 1, 2)[pbio.EnvelopeSize:])
	f.Fuzz(func(t *testing.T, count int64, data []byte) {
		members := make([]pbio.Value, 0, len(data)/2)
		for i := 0; i+1 < len(data) && len(members) < 64; i += 2 {
			n := int(data[i]>>2) % (len(data) - i)
			members = append(members, pbio.RecordOf(pbio.NewRecord(echo.MemberV2Format).
				MustSet("info", pbio.Str(string(data[i:i+n]))).
				MustSet("ID", pbio.Int(int64(int8(data[i+1]))*int64(i+1))).
				MustSet("is_Source", pbio.Bool(data[i]&1 != 0)).
				MustSet("is_Sink", pbio.Bool(data[i]&2 != 0))))
		}
		built := pbio.EncodeRecord(pbio.NewRecord(echo.ResponseV2Format).
			MustSet("member_count", pbio.Int(count)).
			MustSet("member_list", pbio.ListOf(members)))
		raw := append(binary.LittleEndian.AppendUint64(nil, echo.ResponseV2Format.Fingerprint()), data...)
		for _, msg := range [][]byte{built, raw} {
			got, err := s.deliver(t, msg)
			in, decErr := pbio.DecodeRecord(msg, echo.ResponseV2Format)
			if decErr != nil {
				if err == nil || err.Error() != decErr.Error() {
					t.Fatalf("delivery error %v, want the decoder's %v", err, decErr)
				}
				continue
			}
			out := pbio.NewRecord(echo.ResponseV1Format)
			_, runErr := prog.Run(in, out)
			switch {
			case runErr != nil:
				if !errors.Is(runErr, ecode.ErrRuntime) || !errors.Is(err, ecode.ErrRuntime) {
					t.Fatalf("delivery error %v, the program's %v", err, runErr)
				}
			case err != nil:
				t.Fatalf("delivery error %v, but the program ran", err)
			case !bytes.Equal(got, pbio.EncodeRecord(out)):
				t.Fatalf("delivered %x, the program built %x", got, pbio.EncodeRecord(out))
			}
		}
	})
}
