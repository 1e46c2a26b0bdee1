package spool

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/pbio"
	"repro/internal/wire"
)

func fmtOrDie(t *testing.T, name string, fields []pbio.Field) *pbio.Format {
	t.Helper()
	f, err := pbio.NewFormat(name, fields)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSpoolRoundtrip(t *testing.T) {
	f := fmtOrDie(t, "Event", []pbio.Field{
		{Name: "seq", Kind: pbio.Integer},
		{Name: "payload", Kind: pbio.String},
	})
	path := filepath.Join(t.TempDir(), "events.spool")

	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		rec := pbio.NewRecord(f).
			MustSet("seq", pbio.Int(int64(i))).
			MustSet("payload", pbio.Str("data"))
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < n; i++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if v, _ := rec.Get("seq"); v.Int64() != int64(i) {
			t.Errorf("record %d: seq = %d", i, v.Int64())
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("after last record: err = %v, want io.EOF", err)
	}
}

// TestTimeShiftedEvolution is the "separated in time" scenario: a newer
// writer spools v2 messages with their transform; an old reader, which only
// understands v1, replays the file later and receives v1 records.
func TestTimeShiftedEvolution(t *testing.T) {
	v1 := fmtOrDie(t, "Sample", []pbio.Field{
		{Name: "id", Kind: pbio.Integer},
		{Name: "celsius", Kind: pbio.Float},
	})
	v2 := fmtOrDie(t, "Sample", []pbio.Field{
		{Name: "id", Kind: pbio.Integer},
		{Name: "kelvin", Kind: pbio.Float},
		{Name: "sensor", Kind: pbio.String},
	})
	path := filepath.Join(t.TempDir(), "samples.spool")

	// Writer epoch: the upgraded producer.
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Declare(v2, &core.Xform{
		From: v2, To: v1,
		Code: "old.id = new.id; old.celsius = new.kelvin - 273.15;",
	})
	for i := 0; i < 3; i++ {
		rec := pbio.NewRecord(v2).
			MustSet("id", pbio.Int(int64(i))).
			MustSet("kelvin", pbio.Float64(300.15+float64(i))).
			MustSet("sensor", pbio.Str("s-1"))
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reader epoch: an un-upgraded consumer, possibly years later.
	morpher := core.NewMorpher(core.DefaultThresholds)
	var got []float64
	if err := morpher.RegisterFormat(v1, func(r *pbio.Record) error {
		v, _ := r.Get("celsius")
		got = append(got, v.Float64())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, wire.WithMorpher(morpher))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Replay(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	for i, c := range got {
		want := 27.0 + float64(i)
		if c < want-1e-9 || c > want+1e-9 {
			t.Errorf("record %d: celsius = %g, want %g", i, c, want)
		}
	}
	if st := morpher.Stats(); st.Transformed != 3 || st.Compiled != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestReplayWithoutMorpher(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{{Name: "x", Kind: pbio.Integer}})
	path := filepath.Join(t.TempDir(), "x.spool")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(pbio.NewRecord(f)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Replay(); err == nil {
		t.Error("Replay without a morpher must error")
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing.spool")); err == nil {
		t.Error("opening a missing spool must fail")
	}
	if _, err := Create(filepath.Join(t.TempDir(), "no", "such", "dir", "x.spool")); err == nil {
		t.Error("creating in a missing directory must fail")
	}
}

func TestTruncatedSpool(t *testing.T) {
	f := fmtOrDie(t, "m", []pbio.Field{{Name: "s", Kind: pbio.String}})
	dir := t.TempDir()
	path := filepath.Join(dir, "full.spool")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(pbio.NewRecord(f).MustSet("s", pbio.Str("hello world"))); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncate mid-frame and replay: must produce a clean error, not hang
	// or panic.
	data, err := readAll(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.spool")
	if err := writeAll(cut, data[:len(data)-5]); err != nil {
		t.Fatal(err)
	}
	r, err := Open(cut)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for {
		_, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				t.Error("truncated spool must not report clean EOF")
			}
			break
		}
	}
}

func readAll(path string) ([]byte, error)  { return os.ReadFile(path) }
func writeAll(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }
