package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"repro/internal/pbio"
)

// churnSpan covers format_churn's first lineage and the start of its second.
const churnSpan = churnEvery*churnEpoch + 2*churnEvery

// transcript renders everything a source generates over its first n
// messages: every record's bytes and every declaration.
func transcript(t *testing.T, wl *workload, seed int64, n uint64) []byte {
	t.Helper()
	src, err := wl.build(seed)
	if err != nil {
		t.Fatalf("%s: build: %v", wl.name, err)
	}
	var b bytes.Buffer
	for i := uint64(0); i < n; i++ {
		rec, decl := src.next(i)
		b.Write(pbio.EncodeRecord(rec))
		if decl != nil {
			b.Write(pbio.EncodeFormat(decl.format))
			for _, x := range decl.xforms {
				b.WriteString(x.Code)
			}
		}
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloads {
		a, b := transcript(t, wl, 42, churnSpan), transcript(t, wl, 42, churnSpan)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two builds from seed 42 generated different records or formats", wl.name)
		}
		if c := transcript(t, wl, 43, churnSpan); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 42 and 43 generated identical inputs", wl.name)
		}
	}
}

// Every sink's vintage must land on the lane the workload exists to
// exercise, and the offline oracle must agree with what the engine
// delivers — checked on standalone Morphers, no socket opened.
func TestLanesAndReference(t *testing.T) {
	for _, wl := range workloads {
		src, err := wl.build(7)
		if err != nil {
			t.Fatalf("%s: build: %v", wl.name, err)
		}
		for i, spec := range src.sinks {
			var got *pbio.Record
			m, err := morpherFor(src, spec)
			if err != nil {
				t.Fatalf("%s sink %d: %v", wl.name, i, err)
			}
			target := spec.format
			if target == nil {
				target = src.layerXform.To
			}
			if spec.encoded {
				err = m.RegisterFormatEncoded(target, func(d []byte, f *pbio.Format) error {
					got, err = pbio.DecodeRecord(d, f)
					return err
				})
			} else {
				err = m.RegisterFormat(target, func(r *pbio.Record) error { got = r; return nil })
			}
			if err != nil {
				t.Fatalf("%s sink %d: register: %v", wl.name, i, err)
			}

			rec := src.layerRec
			ex, err := m.Explain(rec.Format())
			if err != nil || ex.Rejected {
				t.Fatalf("%s sink %d: explain: %+v %v", wl.name, i, ex, err)
			}
			if err := m.DeliverEncoded(pbio.EncodeRecord(rec), rec.Format()); err != nil {
				t.Fatalf("%s sink %d: deliver: %v", wl.name, i, err)
			}
			st := m.Stats()
			lane := ""
			switch {
			case ex.ChainLen == 2:
				lane = laneChain
			case ex.ChainLen == 1:
				lane = laneXform
			case ex.Perfect:
				lane = laneIdentity
			case st.SpliceHits == 1:
				lane = laneSplice
			case st.Converted == 1:
				lane = laneRecord
			}
			if lane != spec.lane {
				t.Errorf("%s sink %d: on lane %q (explain %+v, stats %v), want %q", wl.name, i, lane, ex, st, spec.lane)
			}

			// The oracle against the engine on the sequence's own first
			// messages; format_churn's changing formats get their own test.
			for n := uint64(0); n < 3 && !wl.registry; n++ {
				msg, _ := src.next(n)
				want, err := src.reference(i, n, msg)
				if err != nil {
					t.Fatalf("%s sink %d: reference: %v", wl.name, i, err)
				}
				if err := m.DeliverEncoded(pbio.EncodeRecord(msg), msg.Format()); err != nil {
					t.Fatalf("%s sink %d: deliver message %d: %v", wl.name, i, n, err)
				}
				if !got.Equal(want) {
					t.Errorf("%s sink %d message %d: engine delivered\n%v\nreference says\n%v", wl.name, i, n, got, want)
				}
			}
		}
	}
}

// format_churn's oracle, against the engine, across a generation change.
func TestChurnReferenceMatchesEngine(t *testing.T) {
	wl := workloadByName("format_churn")
	src, err := wl.build(11)
	if err != nil {
		t.Fatal(err)
	}
	var got *pbio.Record
	m, err := morpherFor(src, src.sinks[0])
	if err != nil {
		t.Fatal(err)
	}
	xformed := 0
	for n := uint64(0); n < 4*churnEvery; n += churnEvery / 2 {
		msg, decl := src.next(n)
		if decl != nil {
			if decl.sinkFormat != nil {
				if err := m.RegisterFormat(decl.sinkFormat, func(r *pbio.Record) error { got = r; return nil }); err != nil {
					t.Fatal(err)
				}
			}
			for _, x := range decl.xforms {
				if err := m.AddTransform(x); err != nil {
					t.Fatal(err)
				}
				xformed++
			}
		}
		want, err := src.reference(0, n, msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.DeliverEncoded(pbio.EncodeRecord(msg), msg.Format()); err != nil {
			t.Fatalf("message %d: %v", n, err)
		}
		if !got.Equal(want) {
			t.Errorf("message %d: engine delivered\n%v\nreference says\n%v", n, got, want)
		}
		if seq := got.GetIndex(idxSeq).Uint64(); seq != src.seq0+n {
			t.Errorf("message %d carries seq %d, want %d", n, seq, src.seq0+n)
		}
	}
	if xformed != 3 {
		t.Errorf("declared %d transforms over 4 generations, want 3", xformed)
	}
}

// BENCHMARK.json must stay inside the limits its readers enforce and name
// exactly the workloads this package runs.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		check(w.Name, "", "")
		if w.Name != workloads[i].name || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), implemented as %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) == 0 || len(spec.Command) == 0 {
		t.Errorf("run_seconds %d, paths %v, command %v", spec.RunSeconds, spec.Paths, spec.Command)
	}
}
