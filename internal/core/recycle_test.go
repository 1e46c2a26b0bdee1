package core_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/echo"
	"repro/internal/ecode"
	"repro/internal/pbio"
)

// The Figure 5 formats with a leading seq field the transform copies, by
// which a handler tells concurrent deliveries apart.
var (
	seqField  = pbio.Field{Name: "seq", Kind: pbio.Unsigned, Size: 8}
	seqV2     = pbio.MustFormat("ChannelOpenResponse", append([]pbio.Field{seqField}, echo.ResponseV2Format.Fields()...))
	seqV1     = pbio.MustFormat("ChannelOpenResponse", append([]pbio.Field{seqField}, echo.ResponseV1Format.Fields()...))
	seqFigure = &core.Xform{From: seqV2, To: seqV1, Code: echo.Figure5Transform + "old.seq = new.seq;"}
	// A near miss of it, which stores seq twice and so runs on the VM,
	// building what it builds.
	seqFigureVM = &core.Xform{From: seqV2, To: seqV1, Code: seqFigure.Code + "old.seq = old.seq;"}
)

// recycledMessage is an enveloped seqV2 message and what delivering it
// must do: fail with decodeErr, fail in the program, or hand the handler
// want.
type recycledMessage struct {
	data      []byte
	decodeErr error
	want      *pbio.Record
}

// recycledMessages are rosters of 0-40 members, each with its own seq, and
// for every one a truncated copy and a copy with one bit flipped past the
// seq field. A copy that still decodes may make the program fail (a count
// past the list's end) or morph into another record.
func recycledMessages(t *testing.T, rng *rand.Rand, n int) []recycledMessage {
	prog, err := ecode.Compile(seqFigure.Code,
		ecode.Param{Name: core.SrcParam, Format: seqV2}, ecode.Param{Name: core.DstParam, Format: seqV1})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []recycledMessage
	add := func(data []byte) {
		m := recycledMessage{data: data}
		var in *pbio.Record
		if in, m.decodeErr = pbio.DecodePayload(data[pbio.EnvelopeSize:], seqV2); m.decodeErr == nil {
			out := pbio.NewRecord(seqV1)
			if _, err := prog.Run(in, out); err == nil {
				m.want = out
			} else if !errors.Is(err, ecode.ErrRuntime) {
				t.Fatal(err)
			}
		}
		msgs = append(msgs, m)
	}
	for i := range n {
		members := make([]pbio.Value, rng.Intn(41))
		for j := range members {
			members[j] = pbio.RecordOf(pbio.NewRecord(echo.MemberV2Format).
				MustSet("info", pbio.Str(string(rune('a'+rng.Intn(26)))+"://node")).
				MustSet("ID", pbio.Int(rng.Int63n(1<<31))).
				MustSet("is_Source", pbio.Bool(rng.Intn(2) == 0)).
				MustSet("is_Sink", pbio.Bool(rng.Intn(2) == 0)))
		}
		data := pbio.EncodeRecord(pbio.NewRecord(seqV2).
			MustSet("seq", pbio.Uint(uint64(3*i))).
			MustSet("member_count", pbio.Int(int64(len(members)))).
			MustSet("member_list", pbio.ListOf(members)))
		add(data)
		payload := pbio.EnvelopeSize + seqField.Size
		add(data[:payload+rng.Intn(len(data)-payload)])
		flipped := append([]byte(nil), data...)
		flipped[payload+rng.Intn(len(data)-payload)] ^= 1 << rng.Intn(8)
		// Its own seq, so the handler can tell the two apart.
		flipped[pbio.EnvelopeSize] = byte(3*i + 1)
		add(flipped)
	}
	return msgs
}

// TestRecycledInputs: a Morpher decodes the input of a decision whose first
// step runs on the Ecode VM into memory it reuses, and decodes the input
// of a lowered first step straight through its plan. Driven from 8
// goroutines with good, truncated and bit-flipped rosters, through Figure
// 5, which lowers, and through a near miss of it, which runs on the VM,
// every delivery must fail with the decoder's own error exactly when
// DecodePayload fails, fail in the program exactly when the program run
// offline fails, and otherwise hand the handler what the offline run
// builds. The records a handler keeps must stay equal to that after 1,000
// later deliveries reuse the memory their inputs were decoded into.
func TestRecycledInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	msgs := recycledMessages(t, rng, 48)
	for _, tc := range []struct {
		name    string
		x       *core.Xform
		lowered int
	}{{"lowered", seqFigure, 1}, {"VM", seqFigureVM, 0}} {
		t.Run(tc.name, func(t *testing.T) { recycledInputs(t, msgs, tc.x, tc.lowered) })
	}
}

// recycledInputs delivers msgs through x, of which lowered steps run as
// plans, as TestRecycledInputs says.
func recycledInputs(t *testing.T, msgs []recycledMessage, x *core.Xform, lowered int) {
	wantBySeq := make(map[uint64]*pbio.Record)
	var undecodable, failing int
	for _, m := range msgs {
		switch {
		case m.decodeErr != nil:
			undecodable++
		case m.want == nil:
			failing++
		default:
			wantBySeq[m.want.GetIndex(0).Uint64()] = m.want
		}
	}
	if undecodable == 0 || failing == 0 || len(wantBySeq) <= len(msgs)/3 {
		t.Fatalf("%d messages: %d do not decode, %d fail in the program, %d morph; want some of each, and some flipped ones morphing",
			len(msgs), undecodable, failing, len(wantBySeq))
	}

	var mu sync.Mutex
	var kept []*pbio.Record
	keep := true
	m := core.NewMorpher(core.DefaultThresholds)
	if err := m.RegisterFormat(seqV1, func(r *pbio.Record) error {
		if want := wantBySeq[r.GetIndex(0).Uint64()]; !r.Equal(want) {
			t.Errorf("handler got %v, want %v", r, want)
		}
		mu.Lock()
		if keep {
			kept = append(kept, r)
		}
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransform(x); err != nil {
		t.Fatal(err)
	}
	if ex, err := m.Explain(seqV2); err != nil || ex.ChainLen != 1 || ex.Lowered != lowered {
		t.Fatalf("Explain = %+v, %v; want one step, %d lowered", ex, err, lowered)
	}

	deliver := func(msg recycledMessage) {
		err := m.DeliverEncoded(msg.data, seqV2)
		switch {
		case msg.decodeErr != nil:
			if err == nil || err.Error() != msg.decodeErr.Error() {
				t.Errorf("delivery error %v, want the decoder's %v", err, msg.decodeErr)
			}
		case msg.want == nil:
			if !errors.Is(err, ecode.ErrRuntime) {
				t.Errorf("delivery error %v, want the program's runtime error", err)
			}
		case err != nil:
			t.Errorf("delivery of a message that morphs offline: %v", err)
		}
	}
	const workers, rounds = 8, 3 // 8 × 3 × 144 messages: 3,456 deliveries
	var delivered, morphed int
	run := func(rounds int) {
		var wg sync.WaitGroup
		for w := range workers {
			order := rand.New(rand.NewSource(int64(w))).Perm(len(msgs))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range rounds {
					for _, i := range order {
						deliver(msgs[i])
					}
				}
			}()
		}
		wg.Wait()
		for _, msg := range msgs {
			if msg.want != nil {
				morphed += workers * rounds
			}
		}
		delivered += workers * rounds * len(msgs)
	}

	run(1)
	mu.Lock()
	keep = false
	mu.Unlock()
	if len(kept) == 0 {
		t.Fatal("the handler kept no record")
	}
	run(rounds - 1)
	if delivered-workers*len(msgs) < 1000 {
		t.Fatalf("only %d deliveries after the kept ones", delivered-workers*len(msgs))
	}
	for _, r := range kept {
		if want := wantBySeq[r.GetIndex(0).Uint64()]; !r.Equal(want) {
			t.Errorf("a kept record changed under later deliveries: %v, want %v", r, want)
		}
	}
	if st := m.Stats(); st.Delivered != uint64(delivered) || st.Transformed != uint64(morphed) {
		t.Errorf("Stats %v: want %d delivered, %d transformed (failed deliveries count no step)", st, delivered, morphed)
	}
}
