package echo

import (
	"io"
	"testing"

	"repro/internal/fanout"
	"repro/internal/pbio"
	"repro/internal/trace"
	"repro/internal/wire"
)

type discardStream struct{}

func (discardStream) Read(p []byte) (int, error)  { return 0, io.EOF }
func (discardStream) Write(p []byte) (int, error) { return len(p), nil }
func (discardStream) Close() error                { return nil }

// BenchmarkFanoutEncodeOnce measures one delivery-engine pass over an
// N-member channel: the publisher's bytes are wrapped once in a refcounted
// shared frame, enqueued to every sink by pointer, and each sink's queue is
// drained through the batch write path. Manual queues keep the measurement
// deterministic (no writer-goroutine scheduling noise): the cost per pass is
// one frame copy plus N enqueues plus N single-frame batch flushes. The
// filter variant adds a derived-channel filter on every member, which costs
// exactly one lazy decode per event regardless of N.
func BenchmarkFanoutEncodeOnce(b *testing.B) {
	f, err := pbio.NewFormat("tick", []pbio.Field{
		{Name: "seq", Kind: pbio.Unsigned, Size: 8},
		{Name: "price", Kind: pbio.Float, Size: 8},
		{Name: "size", Kind: pbio.Unsigned, Size: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	data := pbio.EncodeRecord(pbio.NewRecord(f).
		MustSet("seq", pbio.Uint(42)).
		MustSet("price", pbio.Float64(101.5)).
		MustSet("size", pbio.Uint(300)))

	bench := func(members int, filter string) func(*testing.B) {
		return func(b *testing.B) {
			if filter != "" {
				rec, err := pbio.DecodeRecord(data, f)
				if err != nil {
					b.Fatal(err)
				}
				if !(&memberConn{filter: filter}).wants(rec) {
					b.Fatalf("filter %q does not admit the bench event", filter)
				}
			}
			ch := &channel{id: "bench", om: &echoObs{}}
			pub := &memberConn{}
			sinks := make([]*memberConn, members)
			for i := 0; i < members; i++ {
				mc := &memberConn{conn: wire.NewStreamConn(discardStream{}), filter: filter}
				mc.member = Member{ID: int32(i + 1), IsSink: true}
				mc.q = fanout.NewQueue(fanout.Config{
					Manual: true,
					Flush: func(batch []*fanout.Frame) error {
						wb := mc.wbatch[:0]
						for _, fr := range batch {
							wb = append(wb, wire.BatchFrame{Data: fr.Data, Format: fr.Format, Ctx: fr.Ctx})
						}
						err := mc.conn.WriteEncodedBatchCtx(wb)
						for j := range wb {
							wb[j] = wire.BatchFrame{}
						}
						mc.wbatch = wb[:0]
						return err
					},
				})
				ch.add(mc)
				sinks[i] = mc
			}
			pass := func() {
				ch.fanout(pub, f, data, trace.Context{})
				for _, mc := range sinks {
					mc.q.DrainNow()
				}
			}
			// Warm each member conn's format frame and filter cache, plus the
			// frame and queue pools.
			pass()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
		}
	}
	b.Run("members=4", bench(4, ""))
	b.Run("members=32", bench(32, ""))
	b.Run("members=32/filtered", bench(32, "return event.size > 100;"))
}
