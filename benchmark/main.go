// Command morphperf is the repository's one measurement spine: it runs a
// named workload through a real echo.Server on loopback TCP with real
// echo.Subscriber publishers and sinks, all as goroutines of this one
// process, verifies every delivery, and prints the metrics BENCHMARK.json
// declares. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all of them, as one document)")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", 20, "how long one run measures")
		traced    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end set twice and compare the two against BENCHMARK.json's bounds")
		outDir    = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace-<workload>.json")
	)
	flag.Parse()
	if *seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: morphperf [--workload name] [--seed n] [--seconds s] [--trace 0|1] [-selfcheck]")
		os.Exit(2)
	}

	runs := 2
	if *name == "" {
		runs = 2 * len(workloads)
	}
	// The contract gives one run 180 s; nothing here may outlive that, not
	// even a wedged phase. Per-phase deadlines (twice the phase's length)
	// normally end a stuck run long before this.
	budget := time.Duration(runs) * 170 * time.Second
	time.AfterFunc(budget, func() {
		fmt.Fprintf(os.Stderr, "morphperf: watchdog: still running after %v\n", budget)
		os.Exit(1)
	})

	wl := workloadByName(*name)
	if wl == nil && *name != "" {
		fmt.Fprintf(os.Stderr, "morphperf: unknown workload %q\n", *name)
		os.Exit(2)
	}
	sc := newScratch()
	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(wl, *seed, *seconds, sc))
	case wl == nil:
		os.Exit(runAll(*seed, *seconds, sc, *outDir))
	}
	o, err := runOne(wl, *seed, *seconds, *traced != 0, sc, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "morphperf: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	if err := checkDeclared(o.Metrics, *traced != 0); err != nil {
		fmt.Fprintf(os.Stderr, "morphperf: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "morphperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !o.Correct {
		os.Exit(1)
	}
}

func runOne(wl *workload, seed int64, seconds float64, traced bool, sc *scratch, outDir string) (outcome, error) {
	var o outcome
	var err error
	if traced {
		o, err = runLayers(wl, seed, seconds, sc, filepath.Join(outDir, "trace-"+wl.name+".json"))
	} else {
		o, err = runE2E(wl, seed, seconds, sc)
	}
	for _, note := range o.notes {
		fmt.Fprintf(os.Stderr, "morphperf: %s:%s\n", wl.name, note)
	}
	return o, err
}

// benchmarkSpec is the part of BENCHMARK.json this program reads back.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readSpec() (*benchmarkSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	return &spec, json.Unmarshal(b, &spec)
}

// checkDeclared refuses to print a result whose metric names are not
// exactly the ones BENCHMARK.json declares for this kind of run. Without
// the file (the binary run outside a checkout) there is nothing to check.
func checkDeclared(got metrics, traced bool) error {
	spec, err := readSpec()
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := map[string]bool{}
	if traced {
		for _, m := range spec.PerLayer {
			want[m.Name] = true
		}
	} else {
		for _, m := range spec.EndToEnd {
			want[m.Name] = true
		}
	}
	for name := range got {
		if !want[name] {
			return fmt.Errorf("metric %q is measured but not declared in BENCHMARK.json", name)
		}
		delete(want, name)
	}
	for name := range want {
		return fmt.Errorf("metric %q is declared in BENCHMARK.json but not measured", name)
	}
	return nil
}

// env stamps a document with where its numbers came from.
func env(seed int64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"go": runtime.Version(), "cpu": cpu, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "commit": commit, "seed": seed,
	}
}

// runAll runs every workload both ways and prints one document.
func runAll(seed int64, seconds float64, sc *scratch, outDir string) int {
	type entry struct {
		E2E       metrics `json:"e2e"`
		Layers    metrics `json:"layers"`
		Correct   bool    `json:"correct"`
		Attempted uint64  `json:"attempted"`
		Failed    uint64  `json:"failed"`
	}
	doc := struct {
		Env       map[string]any    `json:"env"`
		Claim     any               `json:"claim"`
		Workloads map[string]*entry `json:"workloads"`
	}{Env: env(seed), Workloads: map[string]*entry{}}
	status := 0
	for _, wl := range workloads {
		e := &entry{Correct: true}
		doc.Workloads[wl.name] = e
		for _, traced := range []bool{false, true} {
			o, err := runOne(wl, seed, seconds, traced, sc, outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "morphperf: %s: %v\n", wl.name, err)
				o.Correct = false
			}
			if traced {
				e.Layers = o.Metrics
			} else {
				e.E2E = o.Metrics
			}
			e.Correct = e.Correct && o.Correct
			e.Attempted += o.Attempted
			e.Failed += o.Failed
		}
		if !e.Correct {
			status = 1
		}
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	fmt.Println(string(b))
	return status
}

// runSelfcheck runs the end-to-end set (or just one workload) twice and
// prints, per workload and
// metric, both values, how far the second is from the first in the
// metric's bad direction, and the bound from BENCHMARK.json.
func runSelfcheck(only *workload, seed int64, seconds float64, sc *scratch) int {
	spec, err := readSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "morphperf: selfcheck needs BENCHMARK.json in the working directory: %v\n", err)
		return 2
	}
	status := 0
	fmt.Printf("%-16s %-20s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, wl := range workloads {
		if only != nil && wl != only {
			continue
		}
		var runs [2]outcome
		for i := range runs {
			if runs[i], err = runOne(wl, seed, seconds, false, sc, ""); err != nil || !runs[i].Correct {
				fmt.Fprintf(os.Stderr, "morphperf: %s: run %d failed: %v\n", wl.name, i+1, err)
				return 1
			}
		}
		for _, m := range spec.EndToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict, status = "  FAIL", 1
			}
			fmt.Printf("%-16s %-20s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n", wl.name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	return status
}
