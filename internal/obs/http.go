package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on http.DefaultServeMux; Serve forwards there
	"sort"
	"strings"
	"time"
)

// MorphzPath is the registry snapshot page Serve mounts.
const MorphzPath = "/debug/morphz"

// DebugIndexPath is the index page Serve mounts: a listing of every path
// mounted on the listener, the one way an operator discovers the rest.
const DebugIndexPath = "/debug/"

// pprofPath is the net/http/pprof subtree Serve mounts.
const pprofPath = "/debug/pprof/"

// WritePage renders a debug page: writeText's dump when the request asks for
// text (?format=text, or an Accept header led by text/plain), v as indented
// JSON otherwise. Every page on the debug plane (morphz, tracez, tapz,
// registryz) answers through here, so they negotiate alike; a page's own
// formats (tracez jsonl, tapz morphcap) are checked by the page first.
func WritePage(w http.ResponseWriter, req *http.Request, v any, writeText func(io.Writer)) {
	if !wantsText(req) {
		writeJSON(w, http.StatusOK, v)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	writeText(w)
}

func wantsText(req *http.Request) bool {
	return req.URL.Query().Get("format") == "text" ||
		strings.HasPrefix(req.Header.Get("Accept"), "text/plain")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// indexHandler serves the endpoint index: the mounted paths, sorted, one per
// line as clickable HTML (default) or plain text (as WritePage negotiates).
func indexHandler(paths []string) http.Handler {
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// The subtree pattern "/debug/" catches unmounted paths too; 404
		// them instead of serving the index under any name.
		if req.URL.Path != DebugIndexPath {
			http.NotFound(w, req)
			return
		}
		if wantsText(req) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintf(w, "# debug endpoints (%d)\n", len(sorted))
			for _, p := range sorted {
				fmt.Fprintln(w, p)
			}
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, "<html><head><title>debug index</title></head><body><h1>debug endpoints</h1><ul>\n")
		for _, p := range sorted {
			fmt.Fprintf(w, "<li><a href=%q>%s</a></li>\n", p, p)
		}
		fmt.Fprint(w, "</ul></body></html>\n")
	})
}

// morphzHandler serves the registry's Snapshot as a page. A nil registry
// serves an empty snapshot.
func morphzHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := r.Snapshot()
		WritePage(w, req, snap, snap.WriteText)
	})
}

// Mount pairs a path with a component page for Serve.
type Mount struct {
	Path    string
	Handler http.Handler
}

// Server is a running debug HTTP server created by Serve.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the server's bound address (useful with ":0").
func (s *Server) Addr() net.Addr {
	if s == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close shuts the debug server down.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// Serve starts a process's debug listener on addr, returning once it is
// bound; it serves until Close. It is the only place a debug listener is put
// together, so every one carries the same base: the DebugIndexPath index,
// the registry at MorphzPath and MetricsPath, liveness and readiness from h
// at HealthzPath and ReadyzPath (a nil h is always ready), and
// net/http/pprof under /debug/pprof/. Which component pages ride along is
// the policy of the process that owns the listener, passed as pages. The
// listener serves profiles and captured payload prefixes, so addr is an
// operator-only address. Nothing listens unless the process calls Serve.
//
// A Go runtime sampler rides along: every /metrics and /debug/morphz request
// refreshes the registry's "go.*" instruments (goroutines, heap/sys gauges,
// GC pause histogram — morph_go_* in the exposition) before the snapshot is
// taken, so scrapes carry current runtime pressure at zero idle cost.
func Serve(addr string, r *Registry, h *Health, pages ...Mount) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	rs := NewRuntimeSampler(r)
	sampled := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			rs.Sample()
			next.ServeHTTP(w, req)
		})
	}
	mounts := append([]Mount{
		{MorphzPath, sampled(morphzHandler(r))},
		{MetricsPath, sampled(promHandler(r))},
		{HealthzPath, h.healthzHandler()},
		{ReadyzPath, h.readyzHandler()},
		{pprofPath, http.DefaultServeMux},
	}, pages...)
	mux := http.NewServeMux()
	paths := []string{DebugIndexPath}
	for _, m := range mounts {
		mux.Handle(m.Path, m.Handler)
		paths = append(paths, m.Path)
	}
	mux.Handle(DebugIndexPath, indexHandler(paths))
	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// WriteText renders the snapshot as a human-readable dump: counters and
// gauges one per line (sorted), histogram summaries, then the retained
// decision traces, oldest first.
func (s Snapshot) WriteText(w io.Writer) {
	fmt.Fprintf(w, "# obs registry %q (uptime %s)\n", s.Name, time.Duration(s.UptimeNS))
	for _, k := range sortedKeys(s.Counters) {
		fmt.Fprintf(w, "counter %-28s %d\n", k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		fmt.Fprintf(w, "gauge   %-28s %d\n", k, s.Gauges[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		if strings.HasSuffix(k, "_ns") {
			fmt.Fprintf(w, "hist    %-28s count=%d mean=%s p50=%s p90=%s p99=%s max=%s\n",
				k, h.Count, time.Duration(int64(h.Mean)),
				time.Duration(h.P50), time.Duration(h.P90), time.Duration(h.P99),
				time.Duration(h.Max))
			continue
		}
		fmt.Fprintf(w, "hist    %-28s count=%d mean=%.1f p50=%d p90=%d p99=%d max=%d\n",
			k, h.Count, h.Mean, h.P50, h.P90, h.P99, h.Max)
	}
	if len(s.Decisions) > 0 {
		fmt.Fprintf(w, "# last %d morph decisions\n", len(s.Decisions))
		for _, d := range s.Decisions {
			fmt.Fprintf(w, "%s\n", d)
		}
	}
}

// Text returns WriteText output as a string.
func (s Snapshot) Text() string {
	var b strings.Builder
	s.WriteText(&b)
	return b.String()
}
