package main

import (
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

// runMain runs main with stdout captured.
func runMain(t *testing.T) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	main()
	w.Close()
	return string(<-out)
}

// TestMonitorOutput checks the dashboard lines as a set — the two agents
// publish on separate connections, so their reports may arrive in either
// order — and the alert line, whose loads main sorts.
func TestMonitorOutput(t *testing.T) {
	lines := strings.Split(strings.TrimSuffix(runMain(t), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if want := "publishing: v1 agent (cpu 42), v2 agent (cpu 95, 512 MB), v1 agent (cpu 97)"; lines[0] != want {
		t.Errorf("line 1 = %q, want %q", lines[0], want)
	}
	dash := slices.Clone(lines[1:4])
	slices.Sort(dash)
	wantDash := []string{
		"dashboard: cpu=42% mem=2048KB net=10  [v1 agent]",
		"dashboard: cpu=95% mem=524288KB net=20  [v2 (morphed: MB→KB, loadavg dropped) agent]",
		"dashboard: cpu=97% mem=4096KB net=30  [v1 agent]",
	}
	if !slices.Equal(dash, wantDash) {
		t.Errorf("dashboard lines:\n%s\nwant (in any order):\n%s", strings.Join(dash, "\n"), strings.Join(wantDash, "\n"))
	}
	if want := "alert sink (filter 'load > 90'): saw [95 97] — the 42% report never crossed its wire"; lines[4] != want {
		t.Errorf("alert line = %q, want %q", lines[4], want)
	}
}
