package spool

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/pbio"
	"repro/internal/wire"
)

// buildSpool writes three records and returns the file bytes plus the offset
// where the final frame begins (the third record's data frame — the format
// frame precedes the first record only).
func buildSpool(t *testing.T, path string) (full []byte, lastFrameOff int) {
	t.Helper()
	f, err := pbio.NewFormat("torn", []pbio.Field{
		{Name: "n", Kind: pbio.Integer, Size: 4},
		{Name: "s", Kind: pbio.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []string{"alpha", "beta", "gamma-long-tail"} {
		rec := pbio.NewRecord(f).MustSet("n", pbio.Int(int64(i))).MustSet("s", pbio.Str(s))
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			// Appends flush, so the file size here is where frame 3 starts.
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			lastFrameOff = int(st.Size())
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lastFrameOff <= 0 || lastFrameOff >= len(full) {
		t.Fatalf("bad last-frame offset %d (file %d bytes)", lastFrameOff, len(full))
	}
	return full, lastFrameOff
}

func writeFile(t *testing.T, dir string, b []byte) string {
	t.Helper()
	path := filepath.Join(dir, "cut.spool")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReaderTruncatedTail kills the writer at every byte offset of the last
// frame (the torn-write shapes a process kill can leave behind) and checks
// each prefix replays cleanly: the two intact records come back, then Next
// reports the sentinel instead of a generic decode failure.
func TestReaderTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	full, off := buildSpool(t, filepath.Join(dir, "full.spool"))

	for cut := off; cut <= len(full); cut++ {
		path := writeFile(t, dir, full[:cut])
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatalf("cut=%d: record %d: %v", cut, i, err)
			}
		}
		_, err = r.Next()
		switch {
		case cut == off:
			// The file ends exactly at a frame boundary: a clean end of
			// stream, not a torn write.
			if err != io.EOF {
				t.Fatalf("cut=%d: err = %v, want io.EOF", cut, err)
			}
			if r.Truncated() {
				t.Fatalf("cut=%d: Truncated() = true at a frame boundary", cut)
			}
		case cut == len(full):
			if err != nil {
				t.Fatalf("cut=%d: full file: %v", cut, err)
			}
		default:
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut=%d: err = %v, want ErrTruncated", cut, err)
			}
			if !r.Truncated() {
				t.Fatalf("cut=%d: Truncated() = false after sentinel", cut)
			}
		}
		_ = r.Close()
	}
}

// TestReplayTornTail: Replay treats the torn tail as clean end-of-stream —
// both intact records delivered, nil error — while Truncated stays queryable.
func TestReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	full, off := buildSpool(t, filepath.Join(dir, "full.spool"))
	path := writeFile(t, dir, full[:off+3]) // three bytes into the last frame

	var got []string
	m := core.NewMorpher(core.DefaultThresholds)
	f, err := pbio.NewFormat("torn", []pbio.Field{
		{Name: "n", Kind: pbio.Integer, Size: 4},
		{Name: "s", Kind: pbio.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterFormat(f, func(rec *pbio.Record) error {
		v, _ := rec.Get("s")
		got = append(got, v.Strval())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, wire.WithMorpher(m))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Replay(); err != nil {
		t.Fatalf("Replay() = %v, want nil for torn tail", err)
	}
	if len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("replayed %v, want the two intact records", got)
	}
	if !r.Truncated() {
		t.Error("Truncated() = false after torn-tail replay")
	}
}

// TestTornVsCorrupt: mid-file corruption must NOT be mistaken for a torn
// tail — the sentinel is reserved for EOF-shaped failures.
func TestTornVsCorrupt(t *testing.T) {
	dir := t.TempDir()
	full, off := buildSpool(t, filepath.Join(dir, "full.spool"))

	corrupt := append([]byte(nil), full...)
	corrupt[off] = 0 // zero frame kind: stream desync, not a torn tail
	path := writeFile(t, dir, corrupt)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	_, err = r.Next()
	if err == nil || errors.Is(err, ErrTruncated) || err == io.EOF {
		t.Fatalf("corrupt frame: err = %v, want a generic decode failure", err)
	}
	if r.Truncated() {
		t.Error("Truncated() = true for corruption")
	}
}

// TestReplayTornAtEveryCut is TestReaderTruncatedTail for Replay, the live
// receive loop: at every cut inside the last frame — after the frame-type
// byte and mid-length included, where the stream ends on a bare EOF — the
// replay is clean, delivers the two intact records and reports Truncated.
func TestReplayTornAtEveryCut(t *testing.T) {
	dir := t.TempDir()
	full, off := buildSpool(t, filepath.Join(dir, "full.spool"))
	f, err := pbio.NewFormat("torn", []pbio.Field{
		{Name: "n", Kind: pbio.Integer, Size: 4},
		{Name: "s", Kind: pbio.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	for cut := off; cut <= len(full); cut++ {
		delivered := 0
		m := core.NewMorpher(core.DefaultThresholds)
		if err := m.RegisterFormat(f, func(*pbio.Record) error { delivered++; return nil }); err != nil {
			t.Fatal(err)
		}
		r := NewReader(bytes.NewReader(full[:cut]), wire.WithMorpher(m))
		if err := r.Replay(); err != nil {
			t.Fatalf("cut=%d: Replay() = %v", cut, err)
		}
		torn := cut != off && cut != len(full)
		want := 2
		if cut == len(full) {
			want = 3
		}
		if delivered != want || r.Truncated() != torn {
			t.Fatalf("cut=%d: delivered %d, truncated %v; want %d, %v", cut, delivered, r.Truncated(), want, torn)
		}
	}
}
