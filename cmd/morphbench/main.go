// Command morphbench regenerates the paper's evaluation (§5): Table 1 and
// Figures 8, 9 and 10, plus the ablations called out in DESIGN.md, and
// drives the two correctness scenarios (replica failover, fleet chaos soak).
// Output uses the paper's layout (sizes in KB, times in ms); figures can
// additionally be written as CSV for plotting. Performance numbers for the
// messaging stack itself come from benchmark/ (bash benchmark/run.sh), not
// from here.
//
// Usage:
//
//	morphbench [-exp all|table1|fig8|fig9|fig10|ablations|replica|fleet] [-quick] [-csv dir] [-out file] [-obs] [-seed n]
//
// The replica experiment builds its 3-peer formatd cluster in-process; the
// same failover load against real daemon processes is cmd/formatd's
// TestSIGKILLPrimaryUnderLoad.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/ecode"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "morphbench:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("morphbench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "experiment: all, table1, fig8, fig9, fig10, ablations, replica, fleet")
		quick   = fs.Bool("quick", false, "shorter measuring windows and smaller max size (for CI)")
		csvDir  = fs.String("csv", "", "also write the table/figure series as CSV files into this directory")
		withObs = fs.Bool("obs", false, "attach an observability registry and print its final snapshot as JSON")
		outJSON = fs.String("out", "", "write the replica/fleet results to this file as one JSON object keyed by experiment (empty: print only)")
		seed    = fs.Int64("seed", 1, "fleet: chaos schedule seed (logged in the result; rerun with the same seed to reproduce)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outJSON != "" && *exp != "all" && *exp != "replica" && *exp != "fleet" {
		return fmt.Errorf("-out carries replica/fleet results only; -exp %s produces none", *exp)
	}

	h, err := bench.NewHarness()
	if err != nil {
		return err
	}
	var reg *obs.Registry
	if *withObs {
		reg = obs.NewRegistry("morphbench")
		h.SetObs(reg)
		ecode.SetObs(reg)
		defer ecode.SetObs(nil)
	}
	opts := bench.Options{MinTotal: 200 * time.Millisecond}
	if *quick {
		opts = bench.Options{
			Sizes:    []int{100, 1_000, 10_000, 100_000},
			Labels:   []string{"100B", "1KB", "10KB", "100KB"},
			MinTotal: 20 * time.Millisecond,
		}
	}

	writeCSV := func(name string, write func(f *os.File)) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		write(f)
		return f.Sync()
	}

	var (
		encode, decode, morph []bench.Point
		sizeRows              []bench.SizeRow
		results               = map[string]any{} // the -out document: experiment name → result
	)

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("table1") {
		sizes, labels := bench.FigureSizes, bench.Table1Labels
		if *quick {
			sizes, labels = opts.Sizes, nil
		}
		sizeRows, err = h.SizeTable(sizes, labels)
		if err != nil {
			return err
		}
		bench.PrintTable1(stdout, sizeRows)
		if err := writeCSV("table1.csv", func(f *os.File) { bench.PrintTable1CSV(f, sizeRows) }); err != nil {
			return err
		}
	}
	if want("fig8") {
		encode = h.EncodeSweep(opts)
		bench.PrintFigure(stdout, "Figure 8. Encoding cost (ms)", "PBIO", "XML", encode)
		if err := writeCSV("fig8.csv", func(f *os.File) { bench.PrintFigureCSV(f, encode) }); err != nil {
			return err
		}
	}
	if want("fig9") {
		decode, err = h.DecodeSweep(opts)
		if err != nil {
			return err
		}
		bench.PrintFigure(stdout, "Figure 9. Decoding cost without evolution (ms)", "PBIO", "XML", decode)
		if err := writeCSV("fig9.csv", func(f *os.File) { bench.PrintFigureCSV(f, decode) }); err != nil {
			return err
		}
	}
	if want("fig10") {
		morph, err = h.MorphSweep(opts)
		if err != nil {
			return err
		}
		bench.PrintFigure(stdout, "Figure 10. Decoding cost with message evolution (ms)",
			"PBIO Morphing", "XML/XSLT", morph)
		if err := writeCSV("fig10.csv", func(f *os.File) { bench.PrintFigureCSV(f, morph) }); err != nil {
			return err
		}
	}
	if want("replica") {
		result, err := h.ReplicaSweep(*quick)
		if err != nil {
			return err
		}
		bench.PrintReplica(stdout, result)
		results["replica"] = result
	}
	if want("fleet") {
		result, err := h.FleetSoak(*seed, *quick)
		if err != nil {
			return err
		}
		bench.PrintFleet(stdout, result)
		results["fleet"] = result
	}
	if want("ablations") {
		minTotal := opts.MinTotal
		cold, cached, err := h.AblationColdVsCached(1_000, minTotal)
		if err != nil {
			return err
		}
		vm, native, err := h.AblationEcodeVsNative(10_000, minTotal)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Ablations")
		fmt.Fprintf(stdout, "  first-message (MaxMatch + compile) vs cached decision, 1KB: %v vs %v (%.1fx)\n",
			cold, cached, float64(cold)/float64(cached))
		fmt.Fprintf(stdout, "  Figure 5 via ecode VM vs hand-written Go, 10KB:            %v vs %v (%.1fx)\n",
			vm, native, float64(vm)/float64(native))
		fmt.Fprintln(stdout)
	}

	if *exp == "all" {
		fmt.Fprintln(stdout, "Summary (paper-shape check)")
		fmt.Fprint(stdout, bench.Summary(encode, decode, morph, sizeRows))
	}

	if *outJSON != "" {
		doc, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outJSON, append(doc, '\n'), 0o644); err != nil {
			return err
		}
	}

	if reg != nil {
		fmt.Fprintln(stdout, "Observability snapshot")
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reg.Snapshot()); err != nil {
			return err
		}
	}
	return nil
}
