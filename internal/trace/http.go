package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// TracezPath is the debug endpoint path components mount Handler at.
const TracezPath = "/debug/tracez"

// SpanJSON is one span in the /debug/tracez payload and one line of the
// JSONL export.
type SpanJSON struct {
	TraceID     string    `json:"trace_id"`
	SpanID      string    `json:"span_id"`
	ParentID    string    `json:"parent_id,omitempty"`
	Stage       string    `json:"stage"`
	Start       time.Time `json:"start"`
	DurNS       int64     `json:"dur_ns"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	N           int64     `json:"n,omitempty"`
	Err         bool      `json:"err,omitempty"`
}

func spanJSON(r SpanRecord) SpanJSON {
	s := SpanJSON{
		TraceID: r.Trace.String(),
		SpanID:  r.Span.String(),
		Stage:   r.Stage.String(),
		Start:   time.Unix(0, r.StartNS),
		DurNS:   r.DurNS,
		N:       r.N,
		Err:     r.Err,
	}
	if !r.Parent.IsZero() {
		s.ParentID = r.Parent.String()
	}
	if r.FP != 0 {
		s.Fingerprint = fmt.Sprintf("%016x", r.FP)
	}
	return s
}

// TraceJSON is one assembled trace tree: every retained span sharing a
// trace ID, with per-stage latency totals.
type TraceJSON struct {
	TraceID string           `json:"trace_id"`
	Start   time.Time        `json:"start"`
	DurNS   int64            `json:"dur_ns"` // last span end − first span start
	Spans   []SpanJSON       `json:"spans"`  // by start time
	StageNS map[string]int64 `json:"stage_ns"`
}

// TracezSnapshot is the JSON payload of /debug/tracez.
type TracezSnapshot struct {
	TotalSpans   uint64      `json:"total_spans"`   // spans ever recorded
	SpansDropped uint64      `json:"spans_dropped"` // ring overwrites (see Tracer.Dropped)
	Traces       []TraceJSON `json:"traces"`        // most recent first
}

// Tracez assembles the retained spans into per-trace latency breakdowns,
// most recent trace first. A nil tracer yields an empty snapshot.
func (t *Tracer) Tracez() TracezSnapshot {
	snap := TracezSnapshot{TotalSpans: t.Total(), SpansDropped: t.Dropped()}
	if t == nil {
		return snap
	}
	byTrace := make(map[TraceID][]SpanRecord)
	var order []TraceID // first-seen order follows ring order (oldest first)
	for _, r := range t.Snapshot() {
		if _, seen := byTrace[r.Trace]; !seen {
			order = append(order, r.Trace)
		}
		byTrace[r.Trace] = append(byTrace[r.Trace], r)
	}
	for i := len(order) - 1; i >= 0; i-- {
		spans := byTrace[order[i]]
		sort.Slice(spans, func(a, b int) bool { return spans[a].StartNS < spans[b].StartNS })
		tr := TraceJSON{
			TraceID: order[i].String(),
			Start:   time.Unix(0, spans[0].StartNS),
			Spans:   make([]SpanJSON, 0, len(spans)),
			StageNS: make(map[string]int64),
		}
		var end int64
		for _, r := range spans {
			tr.Spans = append(tr.Spans, spanJSON(r))
			tr.StageNS[r.Stage.String()] += r.DurNS
			if e := r.StartNS + r.DurNS; e > end {
				end = e
			}
		}
		tr.DurNS = end - spans[0].StartNS
		snap.Traces = append(snap.Traces, tr)
	}
	return snap
}

// WriteJSONL writes every retained span as one JSON object per line,
// oldest first — the offline-analysis export (`?format=jsonl` over HTTP).
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range t.Snapshot() {
		if err := enc.Encode(spanJSON(r)); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders the snapshot as human-readable trace trees: spans
// indented beneath their in-process parents, with stage totals per trace.
func (s TracezSnapshot) WriteText(w io.Writer) {
	fmt.Fprintf(w, "# tracez: %d traces retained, %d spans ever recorded, %d dropped\n",
		len(s.Traces), s.TotalSpans, s.SpansDropped)
	for _, tr := range s.Traces {
		fmt.Fprintf(w, "trace %s  start=%s  total=%s  spans=%d\n",
			tr.TraceID, tr.Start.Format(time.RFC3339Nano),
			time.Duration(tr.DurNS), len(tr.Spans))

		children := make(map[string][]SpanJSON)
		ids := make(map[string]bool, len(tr.Spans))
		for _, sp := range tr.Spans {
			ids[sp.SpanID] = true
		}
		var roots []SpanJSON
		for _, sp := range tr.Spans {
			// Spans whose parent is not retained (sampled out, ring-evicted,
			// or recorded by another process's tracer) render as roots.
			if sp.ParentID == "" || !ids[sp.ParentID] {
				roots = append(roots, sp)
			} else {
				children[sp.ParentID] = append(children[sp.ParentID], sp)
			}
		}
		var render func(sp SpanJSON, depth int)
		render = func(sp SpanJSON, depth int) {
			fmt.Fprintf(w, "  %s%-12s %10s", strings.Repeat("  ", depth),
				sp.Stage, time.Duration(sp.DurNS))
			if sp.Fingerprint != "" {
				fmt.Fprintf(w, "  fp=%s", sp.Fingerprint)
			}
			if sp.N != 0 {
				fmt.Fprintf(w, "  n=%d", sp.N)
			}
			if sp.Err {
				fmt.Fprint(w, "  ERR")
			}
			fmt.Fprintln(w)
			for _, c := range children[sp.SpanID] {
				render(c, depth+1)
			}
		}
		for _, r := range roots {
			render(r, 0)
		}
		var stages []string
		for k := range tr.StageNS {
			stages = append(stages, k)
		}
		sort.Strings(stages)
		fmt.Fprint(w, "  stages:")
		for _, k := range stages {
			fmt.Fprintf(w, " %s=%s", k, time.Duration(tr.StageNS[k]))
		}
		fmt.Fprintln(w)
	}
}

// Text returns WriteText output as a string.
func (s TracezSnapshot) Text() string {
	var b strings.Builder
	s.WriteText(&b)
	return b.String()
}

// Handler returns the /debug/tracez page: the TracezSnapshot negotiated as
// obs.WritePage does (JSON, or trace trees as text), `?format=jsonl` streams
// the raw span export, and `?limit=N` bounds the number of traces in the
// JSON/text renderings. A nil tracer serves an empty snapshot.
func Handler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "jsonl" {
			w.Header().Set("Content-Type", "application/jsonl")
			_ = t.WriteJSONL(w)
			return
		}
		snap := t.Tracez()
		if lim, err := strconv.Atoi(req.URL.Query().Get("limit")); err == nil && lim >= 0 && lim < len(snap.Traces) {
			snap.Traces = snap.Traces[:lim]
		}
		obs.WritePage(w, req, snap, snap.WriteText)
	})
}
