package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRunTable1 drives the tool end to end for the cheapest experiment and
// checks both the paper-layout output and the CSV side channel.
func TestRunTable1(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run(&out, []string{"-exp", "table1", "-quick", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1.", "Unencoded v2.0", "PBIO Encoded v2.0", "XML v1.0"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	csv, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "label,unencoded_v2") {
		t.Errorf("csv wrong:\n%s", csv)
	}
}

// TestRunObs drives the ablations with -obs and checks the tool prints a
// parseable snapshot in which the engine's own accounting is visible: the
// cold-path ablation creates one morpher per iteration (many compiles), the
// cached-path ablation reuses one decision (many cache hits).
func TestRunObs(t *testing.T) {
	var out strings.Builder
	if err := run(&out, []string{"-exp", "ablations", "-quick", "-obs"}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	idx := strings.Index(s, "Observability snapshot")
	if idx < 0 {
		t.Fatalf("no snapshot section in output:\n%s", s)
	}
	jsonPart := s[idx+len("Observability snapshot"):]
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(jsonPart), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, jsonPart)
	}
	if snap.Counters["core.compiled"] == 0 {
		t.Error("core.compiled = 0; ablation morphers are not attached to the registry")
	}
	if snap.Counters["core.cache_hits"] == 0 {
		t.Error("core.cache_hits = 0")
	}
	if snap.Counters["ecode.compiles"] == 0 {
		t.Error("ecode.compiles = 0; ecode.SetObs not in effect")
	}
	if snap.Counters["core.delivered"] < snap.Counters["core.cache_hits"] {
		t.Errorf("delivered %d < cache_hits %d: snapshot ordering broken",
			snap.Counters["core.delivered"], snap.Counters["core.cache_hits"])
	}
}

// TestRunOut: morphbench only prints. A default run writes nothing into
// the working directory; files appear only under an explicit -csv dir.
func TestRunOut(t *testing.T) {
	dir := t.TempDir()
	back, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = os.Chdir(back) }() // best effort: only later tests' relative paths depend on it
	var out strings.Builder
	if err := run(&out, []string{"-exp", "table1", "-quick"}); err != nil {
		t.Fatal(err)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("default run wrote into the working directory: %v (err %v)", left, err)
	}
}

func TestRunBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run(&out, []string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flags must error")
	}
	// An unknown experiment name simply selects nothing; it must not crash.
	if err := run(&out, []string{"-exp", "nothing", "-quick"}); err != nil {
		t.Fatal(err)
	}
}
