package tap

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/wire"
)

func tapzGet(t *testing.T, h *Tap, url string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	Handler(h).ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
	return rr
}

func seedTap(t testing.TB) *Tap {
	t.Helper()
	wt := New(Config{Name: "test", Armed: true, Prefix: PrefixMax})
	a := wt.NewConn(Label{Proto: "echo", Channel: "alpha", Role: "sink", Peer: "1.2.3.4:1"})
	b := wt.NewConn(Label{Proto: "echo", Channel: "beta", Role: "source", Peer: "1.2.3.4:2"})
	tid := trace.TraceID{0xAB, 0xCD}
	for i := 0; i < 3; i++ {
		a.CaptureFrame(wire.TapRead, wire.KindData, evBody(int64(i)), trace.Context{Trace: tid})
	}
	a.CaptureFrame(wire.TapWrite, wire.KindTrace, []byte{1, 2, 3}, trace.Context{})
	b.CaptureFrame(wire.TapRead, wire.KindData, evBody(9), trace.Context{})
	return wt
}

func TestTapzJSONAndFilters(t *testing.T) {
	wt := seedTap(t)

	var snap TapzSnapshot
	rr := tapzGet(t, wt, TapzPath)
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, rr.Body.String())
	}
	if !snap.Armed || len(snap.Conns) != 2 {
		t.Fatalf("armed=%v conns=%d", snap.Armed, len(snap.Conns))
	}

	// channel filter keeps only the matching connection.
	rr = tapzGet(t, wt, TapzPath+"?channel=beta")
	snap = TapzSnapshot{}
	_ = json.Unmarshal(rr.Body.Bytes(), &snap)
	if len(snap.Conns) != 1 || snap.Conns[0].Label.Channel != "beta" {
		t.Fatalf("channel filter: %+v", snap.Conns)
	}

	// kind filter drops the trace frame; limit keeps the newest N.
	rr = tapzGet(t, wt, TapzPath+"?kind=data&conn=1&limit=2")
	snap = TapzSnapshot{}
	_ = json.Unmarshal(rr.Body.Bytes(), &snap)
	if len(snap.Conns) != 1 || len(snap.Conns[0].Records) != 2 {
		t.Fatalf("kind+limit filter: %+v", snap.Conns)
	}
	for _, r := range snap.Conns[0].Records {
		if r.Kind != "data" {
			t.Fatalf("kind filter leaked %q", r.Kind)
		}
	}
	if snap.Conns[0].Records[1].Seq != 3 {
		t.Fatalf("limit kept seq %d, want the newest", snap.Conns[0].Records[1].Seq)
	}

	// trace prefix filter matches the seeded trace ID.
	rr = tapzGet(t, wt, TapzPath+"?trace=abcd")
	snap = TapzSnapshot{}
	_ = json.Unmarshal(rr.Body.Bytes(), &snap)
	total := 0
	for _, c := range snap.Conns {
		total += len(c.Records)
	}
	if total != 3 {
		t.Fatalf("trace filter kept %d records, want 3", total)
	}

	// Bad filter values are a 400, not a panic or an empty 200.
	if rr := tapzGet(t, wt, TapzPath+"?fp=zzz"); rr.Code != 400 {
		t.Fatalf("bad fp -> %d", rr.Code)
	}
	if rr := tapzGet(t, wt, TapzPath+"?kind=nosuch"); rr.Code != 400 {
		t.Fatalf("bad kind -> %d", rr.Code)
	}
}

func TestTapzArmToggleAndText(t *testing.T) {
	wt := New(Config{Name: "test"})
	if wt.Armed() {
		t.Fatal("tap armed at birth")
	}
	tapzGet(t, wt, TapzPath+"?arm=on")
	if !wt.Armed() {
		t.Fatal("?arm=on did not arm")
	}
	tapzGet(t, wt, TapzPath+"?arm=off")
	if wt.Armed() {
		t.Fatal("?arm=off did not disarm")
	}

	rr := tapzGet(t, seedTap(t), TapzPath+"?format=text")
	out := rr.Body.String()
	for _, want := range []string{"conn 1 open", "channel=alpha", "fp="} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestTapzMorphcapDownload(t *testing.T) {
	wt := seedTap(t)
	rr := tapzGet(t, wt, TapzPath+"?format=morphcap&channel=alpha")
	if ct := rr.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}
	c, err := ReadCapture(bytes.NewReader(rr.Body.Bytes()))
	if err != nil {
		t.Fatalf("ReadCapture of download: %v", err)
	}
	if c.Truncated || c.Proc != "test" || len(c.Conns) != 1 {
		t.Fatalf("downloaded capture: trunc=%v proc=%q conns=%d", c.Truncated, c.Proc, len(c.Conns))
	}
	if got := len(c.Conns[0].Records); got != 4 {
		t.Fatalf("downloaded %d records, want 4", got)
	}
}

func TestTapzNilTap(t *testing.T) {
	rr := tapzGet(t, nil, TapzPath)
	var snap TapzSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("nil tap response: %v", err)
	}
	if snap.Armed || len(snap.Conns) != 0 {
		t.Fatalf("nil tap snapshot: %+v", snap)
	}
}
