package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// MetricsPath is where Serve mounts the Prometheus exposition endpoint.
const MetricsPath = "/metrics"

// The /metrics endpoint renders the registry in the Prometheus text
// exposition format, so the same instruments that feed /debug/morphz are
// scrapeable by any Prometheus-compatible collector. The name mapping is
// stable and mechanical — dashboards may depend on it:
//
//   - every metric is prefixed "morph_" and dots become underscores:
//     "echo.fanout_ns" → morph_echo_fanout_ns
//   - counters additionally gain the "_total" suffix the exposition format
//     expects: "echo.delivered" → morph_echo_delivered_total
//   - labels embedded in instrument names (see LabeledName) pass through:
//     `echo.sink.lag_ns{channel="q",sink="3"}` becomes series of
//     morph_echo_sink_lag_ns
//   - histograms render as native Prometheus histograms: cumulative
//     _bucket{le="..."} series over the power-of-two bucket bounds, _sum
//     and _count; "_ns"-suffixed names stay in nanoseconds (the unit is
//     part of the name, as everywhere else in this repo)
//   - morph_uptime_seconds carries the registry's uptime
//
// When the scraper negotiates OpenMetrics (Accept:
// application/openmetrics-text, or ?format=openmetrics), histograms with a
// captured top-bucket exemplar attach it to the matching bucket line —
// `# {trace_id="..."} value ts` — which is how a p99 spike links to a
// /debug/tracez trace.

// promBase maps an instrument base name to its Prometheus metric name.
func promBase(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 6)
	b.WriteString("morph_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promSeries is one (base metric, label block) pair collected for rendering.
type promSeries struct {
	labels string // "{...}" or ""
	name   string // original registry name (histogram lookup key)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format; openMetrics switches to the OpenMetrics dialect (exemplars on
// histogram buckets, terminating # EOF). Output is deterministically
// ordered: metrics sorted by exposition name, series sorted by label block.
func WritePrometheus(w io.Writer, s Snapshot, openMetrics bool) {
	type group struct {
		kind   string // "counter", "gauge", "histogram"
		series []promSeries
	}
	groups := make(map[string]*group)
	add := func(name, kind string) {
		base, labels := SplitLabels(name)
		pn := promBase(base)
		g, ok := groups[pn]
		if !ok {
			g = &group{kind: kind}
			groups[pn] = g
		}
		g.series = append(g.series, promSeries{labels: labels, name: name})
	}
	for name := range s.Counters {
		add(name, "counter")
	}
	for name := range s.Gauges {
		add(name, "gauge")
	}
	for name := range s.Histograms {
		add(name, "histogram")
	}

	names := make([]string, 0, len(groups)+1)
	for n := range groups {
		names = append(names, n)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "# TYPE morph_uptime_seconds gauge\n")
	fmt.Fprintf(w, "morph_uptime_seconds %.3f\n", float64(s.UptimeNS)/1e9)

	for _, pn := range names {
		g := groups[pn]
		sort.Slice(g.series, func(i, j int) bool { return g.series[i].labels < g.series[j].labels })
		switch g.kind {
		case "counter":
			fmt.Fprintf(w, "# TYPE %s_total counter\n", pn)
			for _, sr := range g.series {
				fmt.Fprintf(w, "%s_total%s %d\n", pn, sr.labels, s.Counters[sr.name])
			}
		case "gauge":
			fmt.Fprintf(w, "# TYPE %s gauge\n", pn)
			for _, sr := range g.series {
				fmt.Fprintf(w, "%s%s %d\n", pn, sr.labels, s.Gauges[sr.name])
			}
		case "histogram":
			fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
			for _, sr := range g.series {
				writePromHistogram(w, pn, sr.labels, s.Histograms[sr.name], openMetrics)
			}
		}
	}
	if openMetrics {
		fmt.Fprint(w, "# EOF\n")
	}
}

// writePromHistogram renders one histogram series: cumulative buckets over
// the non-empty power-of-two bounds, +Inf, _sum and _count. In OpenMetrics
// mode the captured exemplar rides the first bucket whose bound covers its
// value.
func writePromHistogram(w io.Writer, pn, labels string, h HistogramSnapshot, openMetrics bool) {
	// bucketLabels splices le into an existing label block.
	bucketLabels := func(le string) string {
		if labels == "" {
			return `{le="` + le + `"}`
		}
		return labels[:len(labels)-1] + `,le="` + le + `"}`
	}
	exemplar := ""
	exValue := uint64(0)
	if openMetrics && h.Exemplar != nil {
		exemplar = fmt.Sprintf(" # {trace_id=\"%s\"} %d %.3f",
			h.Exemplar.TraceID, h.Exemplar.Value, float64(h.Exemplar.Time.UnixNano())/1e9)
		exValue = h.Exemplar.Value
	}
	var cum uint64
	for _, b := range h.Buckets {
		cum += b.Count
		if b.Le == ^uint64(0) {
			continue // the 64-bit top bucket merges into +Inf below
		}
		line := fmt.Sprintf("%s_bucket%s %d", pn, bucketLabels(fmt.Sprint(b.Le)), cum)
		if exemplar != "" && exValue <= b.Le {
			line += exemplar
			exemplar = ""
		}
		fmt.Fprintln(w, line)
	}
	line := fmt.Sprintf("%s_bucket%s %d", pn, bucketLabels("+Inf"), h.Count)
	if exemplar != "" {
		line += exemplar
	}
	fmt.Fprintln(w, line)
	fmt.Fprintf(w, "%s_sum%s %d\n", pn, labels, h.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", pn, labels, h.Count)
}

// promHandler returns the /metrics HTTP handler for a registry. A nil
// registry serves an empty (but valid) exposition. OpenMetrics is negotiated via the Accept header
// or forced with ?format=openmetrics.
func promHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		om := req.URL.Query().Get("format") == "openmetrics" ||
			strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text")
		if om {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		} else {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		}
		WritePrometheus(w, r.Snapshot(), om)
	})
}
