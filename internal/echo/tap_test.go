package echo

import (
	"testing"
	"time"

	"repro/internal/pbio"
	"repro/internal/tap"
	"repro/internal/wire"
)

// TestServerTapLabelsMembers: a broker with an armed tap labels each member
// connection with its channel and role once the handshake names them, and
// captures on each its handshake — the open request read, the response
// written — and the event's data frame: read from the source, written to
// the sink.
func TestServerTapLabelsMembers(t *testing.T) {
	wt := tap.New(tap.Config{Name: "echo-server", Armed: true})
	addr := serve(t, NewServer(WithTap(wt)))
	quote := pbio.MustFormat("Quote", []pbio.Field{
		{Name: "symbol", Kind: pbio.String},
		{Name: "price", Kind: pbio.Float},
	})

	snk, err := Open(addr, "c", Options{Sink: true})
	if err != nil {
		t.Fatal(err)
	}
	defer snk.Close()
	received := make(chan struct{}, 1)
	if err := snk.Handle(quote, func(*pbio.Record) error {
		received <- struct{}{}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	go func() { _ = snk.Run() }()
	pub, err := Open(addr, "c", Options{Source: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(pbio.NewRecord(quote).MustSet("symbol", pbio.Str("ACME")).MustSet("price", pbio.Float64(1))); err != nil {
		t.Fatal(err)
	}
	select {
	case <-received:
	case <-time.After(5 * time.Second):
		t.Fatal("event not delivered")
	}

	request := encodeRequest(openRequest{}, false).Format().Fingerprint()
	byRole := map[string]tap.ConnSnapshot{}
	for _, cs := range wt.Snapshot().Conns {
		if cs.Label.Proto != "echo" || cs.Label.Channel != "c" || cs.Label.Peer == "" {
			t.Errorf("connection %d labeled %+v, want proto echo, channel c and its peer", cs.ID, cs.Label)
		}
		byRole[cs.Label.Role] = cs
	}
	for _, want := range []struct {
		role  string
		event wire.TapDir
	}{{"source", wire.TapRead}, {"sink", wire.TapWrite}} {
		cs, ok := byRole[want.role]
		if !ok {
			t.Errorf("no connection labeled %q among %d", want.role, len(byRole))
			continue
		}
		captured := func(dir wire.TapDir, fp uint64) bool {
			for _, r := range cs.Records {
				if r.Kind == wire.KindData && r.Dir == dir && r.FP == fp {
					return true
				}
			}
			return false
		}
		if !captured(wire.TapRead, request) {
			t.Errorf("%s: the open request read was not captured", want.role)
		}
		if !captured(wire.TapWrite, ResponseV2Format.Fingerprint()) {
			t.Errorf("%s: the open response written was not captured", want.role)
		}
		if !captured(want.event, quote.Fingerprint()) {
			t.Errorf("%s: the event's data frame (%s) was not captured", want.role, want.event)
		}
	}
}
