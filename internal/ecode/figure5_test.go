package ecode_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/echo"
	"repro/internal/ecode"
	"repro/internal/pbio"
)

// figure5Native is the paper's Figure 5 written by hand in Go on the packed
// record API: the work the compiled transform must match, statement for
// statement, including the count stored at each source and sink. Its
// fields are the formats' field indices, looked up once.
type figure5Native struct {
	count, list                int // ChannelOpenResponse v2.0
	info, id, isSource, isSink int // MemberV2
	oCount, oList              int // ChannelOpenResponse v1.0
	oSrcCount, oSrc            int
	oSinkCount, oSink          int
	eInfo, eID                 int // MemberEntry
}

func newFigure5Native() *figure5Native {
	v2, v1 := echo.ResponseV2Format, echo.ResponseV1Format
	m, e := echo.MemberV2Format, echo.MemberEntryFormat
	return &figure5Native{
		count: v2.Lookup("member_count"), list: v2.Lookup("member_list"),
		info: m.Lookup("info"), id: m.Lookup("ID"), isSource: m.Lookup("is_Source"), isSink: m.Lookup("is_Sink"),
		oCount: v1.Lookup("member_count"), oList: v1.Lookup("member_list"),
		oSrcCount: v1.Lookup("src_count"), oSrc: v1.Lookup("src_list"),
		oSinkCount: v1.Lookup("sink_count"), oSink: v1.Lookup("sink_list"),
		eInfo: e.Lookup("info"), eID: e.Lookup("ID"),
	}
}

// run converts in (v2.0) into out (v1.0), carving the list elements it
// grows from slab.
func (n *figure5Native) run(in, out *pbio.Record, slab *pbio.Slab) error {
	count := in.GetIndex(n.count)
	if err := out.SetIndex(n.oCount, count); err != nil {
		return err
	}
	members := in.GetIndex(n.list).List()
	src, sink := 0, 0
	for i := 0; int64(i) < count.Int64(); i++ {
		m := members[i].Record()
		o, err := out.NavListElem(n.oList, i, slab)
		if err != nil {
			return err
		}
		if err := n.entry(o, m); err != nil {
			return err
		}
		if m.GetIndex(n.isSource).Bool() {
			if err := n.appendEntry(out, n.oSrcCount, n.oSrc, src, m, slab); err != nil {
				return err
			}
			src++
		}
		if m.GetIndex(n.isSink).Bool() {
			if err := n.appendEntry(out, n.oSinkCount, n.oSink, sink, m, slab); err != nil {
				return err
			}
			sink++
		}
	}
	return nil
}

// appendEntry stores k+1 into out's count field and member m into element k
// of its list field.
func (n *figure5Native) appendEntry(out *pbio.Record, count, list, k int, m *pbio.Record, slab *pbio.Slab) error {
	if err := out.SetIndex(count, pbio.Int(int64(k+1))); err != nil {
		return err
	}
	o, err := out.NavListElem(list, k, slab)
	if err != nil {
		return err
	}
	return n.entry(o, m)
}

func (n *figure5Native) entry(o, m *pbio.Record) error {
	if err := o.SetIndex(n.eInfo, m.GetIndex(n.info)); err != nil {
		return err
	}
	return o.SetIndex(n.eID, m.GetIndex(n.id))
}

func compileFigure5(tb testing.TB) *ecode.Program {
	tb.Helper()
	prog, err := ecode.Compile(echo.Figure5Transform,
		ecode.Param{Name: core.SrcParam, Format: echo.ResponseV2Format},
		ecode.Param{Name: core.DstParam, Format: echo.ResponseV1Format})
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// roster is a generated membership for the Figure 5 oracle: 0-64 members
// with random roles, empty, short and long contact strings, and IDs that
// include negative numbers and 2^31-1.
type roster []echo.Member

func (roster) Generate(r *rand.Rand, _ int) reflect.Value {
	members := make(roster, r.Intn(65))
	for i := range members {
		m := &members[i]
		switch r.Intn(4) {
		case 0:
			m.Info = ""
		case 1:
			m.Info = strings.Repeat("x", 200+r.Intn(800))
		default:
			m.Info = fmt.Sprintf("tcp://node-%05d:%d", r.Intn(100000), r.Intn(65536))
		}
		switch r.Intn(4) {
		case 0:
			m.ID = math.MaxInt32
		case 1:
			m.ID = -r.Int31()
		default:
			m.ID = r.Int31()
		}
		m.IsSource, m.IsSink = r.Intn(2) == 0, r.Intn(2) == 0
	}
	return reflect.ValueOf(members)
}

// TestQuickFigure5MatchesHandWritten: over generated rosters, the compiled
// Figure 5 leaves the v1.0 record exactly as the hand-written Go does.
func TestQuickFigure5MatchesHandWritten(t *testing.T) {
	prog, native := compileFigure5(t), newFigure5Native()
	prop := func(members roster) bool {
		in := echo.ResponseV2Record(members)
		got, want := pbio.NewRecord(echo.ResponseV1Format), pbio.NewRecord(echo.ResponseV1Format)
		if _, err := prog.Run(in, got); err != nil {
			t.Logf("%d members: Run: %v", len(members), err)
			return false
		}
		var slab pbio.Slab
		if err := native.run(in, want, &slab); err != nil {
			t.Logf("%d members: hand-written: %v", len(members), err)
			return false
		}
		if !got.Equal(want) {
			t.Logf("%d members:\nVM          %v\nhand-written %v", len(members), got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// figure5Roster is the benchmark roster: 28 members (about 1 KB encoded),
// half of them sources and half sinks.
func figure5Roster() *pbio.Record { return figure5RosterOf(28) }

// figure5RosterOf is a roster like figure5Roster's, of n members.
func figure5RosterOf(n int) *pbio.Record {
	members := make([]echo.Member, n)
	for i := range members {
		members[i] = echo.Member{
			Info:     fmt.Sprintf("tcp://node-%05d.rack-%02d:%05d", i*7919, i, i*31),
			ID:       int32(i),
			IsSource: i%2 == 0,
			IsSink:   i%4 < 2,
		}
	}
	return echo.ResponseV2Record(members)
}

// BenchmarkFigure5Run times one Figure 5 run on a 28-member roster,
// compiled (vm), hand-written (native) and as the conversion plan its loop
// lowers to (plan: a Morpher delivering the v2.0 record to a v1.0 record
// handler converts it through the plan), output record included. Each
// starts from a fresh output record and slab per run. vm_sizes runs the
// program on rosters of 0 to 200 members in turn, long after short and
// short after long; its figures are per run. The plan's cost inside the
// decoder, where it runs on the wire, is BenchmarkDeliverLowered's.
func BenchmarkFigure5Run(b *testing.B) {
	prog, native, in := compileFigure5(b), newFigure5Native(), figure5Roster()
	m := core.NewMorpher(core.DefaultThresholds)
	var delivered *pbio.Record
	if err := m.RegisterFormat(echo.ResponseV1Format, func(r *pbio.Record) error { delivered = r; return nil }); err != nil {
		b.Fatal(err)
	}
	if err := m.AddTransform(&core.Xform{From: echo.ResponseV2Format, To: echo.ResponseV1Format, Code: echo.Figure5Transform}); err != nil {
		b.Fatal(err)
	}
	if ex, err := m.Explain(echo.ResponseV2Format); err != nil || ex.Lowered != 1 {
		b.Fatalf("Explain = %+v, %v; want Figure 5 lowered", ex, err)
	}
	plan := func(b *testing.B) *pbio.Record {
		if err := m.Deliver(in); err != nil {
			b.Fatal(err)
		}
		return delivered
	}
	vm := func(b *testing.B) *pbio.Record {
		out := pbio.NewRecord(echo.ResponseV1Format)
		if _, err := prog.Run(in, out); err != nil {
			b.Fatal(err)
		}
		return out
	}
	hand := func(b *testing.B) *pbio.Record {
		out := pbio.NewRecord(echo.ResponseV1Format)
		var slab pbio.Slab
		if err := native.run(in, out, &slab); err != nil {
			b.Fatal(err)
		}
		return out
	}
	if got, want := vm(b), hand(b); !got.Equal(want) {
		b.Fatalf("VM and hand-written Figure 5 disagree:\n%v\n%v", got, want)
	}
	if got, want := plan(b), hand(b); !got.Equal(want) {
		b.Fatalf("plan and hand-written Figure 5 disagree:\n%v\n%v", got, want)
	}
	var sizes []*pbio.Record
	for _, n := range []int{1, 200, 3, 60, 0, 28, 12, 100} {
		sizes = append(sizes, figure5RosterOf(n))
	}
	next := 0
	varying := func(b *testing.B) *pbio.Record {
		out := pbio.NewRecord(echo.ResponseV1Format)
		if _, err := prog.Run(sizes[next], out); err != nil {
			b.Fatal(err)
		}
		next = (next + 1) % len(sizes)
		return out
	}
	for _, bm := range []struct {
		name string
		run  func(*testing.B) *pbio.Record
	}{{"vm", vm}, {"native", hand}, {"plan", plan}, {"vm_sizes", varying}} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				bm.run(b)
			}
		})
	}
}
