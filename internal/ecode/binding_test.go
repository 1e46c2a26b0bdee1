package ecode_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/echo"
	"repro/internal/ecode"
	"repro/internal/pbio"
)

// entry is one element of a v1.0 list.
type entry struct {
	info string
	id   int32
}

// v1Want is a ChannelOpenResponse v1.0 record, spelled out.
type v1Want struct {
	count, srcCount, sinkCount int64
	members, src, sink         []entry
}

func (w v1Want) record() *pbio.Record {
	list := func(es []entry) pbio.Value {
		vals := make([]pbio.Value, len(es))
		for i, e := range es {
			vals[i] = pbio.RecordOf(pbio.NewRecord(echo.MemberEntryFormat).
				MustSet("info", pbio.Str(e.info)).
				MustSet("ID", pbio.Int(int64(e.id))))
		}
		return pbio.ListOf(vals)
	}
	return pbio.NewRecord(echo.ResponseV1Format).
		MustSet("member_count", pbio.Int(w.count)).
		MustSet("member_list", list(w.members)).
		MustSet("src_count", pbio.Int(w.srcCount)).
		MustSet("src_list", list(w.src)).
		MustSet("sink_count", pbio.Int(w.sinkCount)).
		MustSet("sink_list", list(w.sink))
}

// aliasedInput is the one v1.0 record an aliased hazard runs as both of its
// parameters: the roster as its member list, and a sink list of the same
// length whose entries differ from the members'.
func aliasedInput(ms []echo.Member) v1Want {
	w := v1Want{count: int64(len(ms))}
	for _, m := range ms {
		w.members = append(w.members, entry{m.Info, m.ID})
		w.sink = append(w.sink, entry{m.Info + "/sink", m.ID ^ 1})
	}
	return w
}

// bindingHazards are Figure-5-shaped programs in which something changes
// what a record path reaches between two uses of it. Each want builds by
// hand the v1.0 record the program must leave. An aliased hazard runs with
// one v1.0 record (aliasedInput) as both parameters; the others convert a
// v2.0 roster into a fresh v1.0 record.
var bindingHazards = []struct {
	name    string
	src     string
	aliased bool
	want    func(ms []echo.Member) v1Want
}{
	{
		name: "subscript local assigned between uses",
		src: `
int i, k;
old.member_count = new.member_count;
for (i = 0; i < new.member_count; i++) {
    k = i;
    old.member_list[k].ID = new.member_list[k].ID;
    k = new.member_count - 1 - i;
    old.member_list[i].info = new.member_list[k].info;
}`,
		want: func(ms []echo.Member) v1Want {
			w := v1Want{count: int64(len(ms))}
			for i, m := range ms {
				w.members = append(w.members, entry{ms[len(ms)-1-i].Info, m.ID})
			}
			return w
		},
	},
	{
		name: "whole list stored into a prefix",
		src: `
int i;
for (i = 0; i < new.member_count; i++) {
    old.src_list[i].ID = 1;
    old.src_list = old.member_list;
    old.src_list[i].info = new.member_list[i].info;
    old.member_list[i].ID = new.member_list[i].ID;
}`,
		want: func(ms []echo.Member) v1Want {
			var w v1Want
			for i, m := range ms {
				w.members = append(w.members, entry{"", m.ID})
				if i < len(ms)-1 {
					w.src = append(w.src, entry{"", m.ID})
				} else {
					w.src = append(w.src, entry{m.Info, 0})
				}
			}
			return w
		},
	},
	{
		name: "nested record stored into a bound element",
		src: `
int i;
old.src_list[0].info = "template";
for (i = 0; i < new.member_count; i++) {
    old.member_list[i].ID = new.member_list[i].ID;
    old.member_list[i] = old.src_list[0];
    old.member_list[i].info = new.member_list[i].info;
}`,
		want: templateWant,
	},
	{
		name: "user function writes through the path",
		src: `
void reset(int k) { old.member_list[k] = old.src_list[0]; }
int i;
old.src_list[0].info = "template";
for (i = 0; i < new.member_count; i++) {
    old.member_list[i].ID = new.member_list[i].ID;
    reset(i);
    old.member_list[i].info = new.member_list[i].info;
}`,
		want: templateWant,
	},
	{
		name:    "one record as both parameters",
		aliased: true,
		src: `
int i, n = new.member_count;
for (i = 0; i < n; i++) {
    old.src_list[i].ID = new.member_list[i].ID;
    old.member_list = new.sink_list;
    old.src_list[i].info = new.member_list[i].info;
}`,
		want: func(ms []echo.Member) v1Want {
			w := aliasedInput(ms)
			for i, s := range w.sink {
				id := s.id
				if i == 0 {
					id = w.members[0].id
				}
				w.src = append(w.src, entry{s.info, id})
			}
			w.members = w.sink
			return w
		},
	},
	{
		name: "continue between uses",
		src: `
int i, k = 0;
for (i = 0; i < new.member_count; i++) {
    old.member_list[k].ID = new.member_list[i].ID;
    if (new.member_list[i].is_Source) continue;
    old.member_list[k].info = new.member_list[i].info;
    k++;
}
old.member_count = k;`,
		want: func(ms []echo.Member) v1Want {
			var w v1Want
			for _, m := range ms {
				if int(w.count) == len(w.members) {
					w.members = append(w.members, entry{})
				}
				w.members[w.count].id = m.ID
				if m.IsSource {
					continue
				}
				w.members[w.count].info = m.Info
				w.count++
			}
			return w
		},
	},
	{
		name: "break between uses",
		src: `
int i;
for (i = 0; i < new.member_count; i++) {
    old.member_list[i].ID = new.member_list[i].ID;
    if (new.member_list[i].is_Sink) break;
    old.member_list[i].info = new.member_list[i].info;
}
old.member_count = i;
if (i < new.member_count) old.src_list[0].info = new.member_list[i].info;`,
		want: func(ms []echo.Member) v1Want {
			var w v1Want
			for _, m := range ms {
				if m.IsSink {
					w.members = append(w.members, entry{"", m.ID})
					w.src = []entry{{m.Info, 0}}
					break
				}
				w.members = append(w.members, entry{m.Info, m.ID})
				w.count++
			}
			return w
		},
	},
}

// templateWant is what the two hazards that overwrite each member with a
// copy of src_list[0], a "template" entry, leave.
func templateWant(ms []echo.Member) v1Want {
	w := v1Want{src: []entry{{"template", 0}}}
	for _, m := range ms {
		w.members = append(w.members, entry{m.Info, 0})
	}
	return w
}

// TestPathBindingHazards: each hazard program leaves exactly the record its
// hand-built want describes, over a fixed roster, an empty one and
// generated ones.
func TestPathBindingHazards(t *testing.T) {
	rosters := []roster{
		{
			{Info: "tcp:n1:4000", ID: 7, IsSource: true},
			{Info: "tcp:n2:4001", ID: -8, IsSink: true},
			{Info: "", ID: 1<<31 - 1, IsSource: true, IsSink: true},
			{Info: "tcp:n4:4003", ID: 10},
			{Info: "tcp:n5:4004", ID: 11, IsSource: true},
		},
		{},
	}
	r := rand.New(rand.NewSource(1))
	for range 20 {
		rosters = append(rosters, roster{}.Generate(r, 0).Interface().(roster))
	}
	for _, h := range bindingHazards {
		t.Run(h.name, func(t *testing.T) {
			src, dst := echo.ResponseV2Format, echo.ResponseV1Format
			if h.aliased {
				src = dst
			}
			prog, err := ecode.Compile(h.src,
				ecode.Param{Name: core.SrcParam, Format: src},
				ecode.Param{Name: core.DstParam, Format: dst})
			if err != nil {
				t.Fatal(err)
			}
			for _, ms := range rosters {
				in, out := echo.ResponseV2Record(ms), pbio.NewRecord(dst)
				if h.aliased {
					in = aliasedInput(ms).record()
					out = in
				}
				if _, err := prog.Run(in, out); err != nil {
					t.Fatalf("%d members: %v", len(ms), err)
				}
				if want := h.want(ms).record(); !out.Equal(want) {
					t.Errorf("%d members:\ngot  %v\nwant %v", len(ms), out, want)
				}
			}
		})
	}
}
