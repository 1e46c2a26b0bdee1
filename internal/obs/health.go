package obs

import (
	"net/http"
	"sort"
	"sync"
	"time"
)

// Health endpoint paths. Serve mounts the pair on every debug listener:
// /healthz is pure liveness (the process is up and serving HTTP), /readyz
// runs the registered component probes and answers 503 until every one
// passes — the split load balancers and orchestration probes expect.
const (
	HealthzPath = "/healthz"
	ReadyzPath  = "/readyz"
)

// Health is a named set of readiness probes. Probes are registered once at
// process wiring time and evaluated on every /readyz request; they must be
// cheap and non-blocking (inspect state, don't dial the world — and when a
// probe must touch I/O, bound it with its own timeout). All methods are
// nil-safe, so the endpoints can be mounted unconditionally.
type Health struct {
	start time.Time

	mu     sync.Mutex
	probes []healthProbe
}

type healthProbe struct {
	name  string
	check func() error
}

// NewHealth returns an empty probe set; with no probes registered, /readyz
// reports ready (a process with no declared dependencies is ready once it
// serves HTTP).
func NewHealth() *Health {
	return &Health{start: time.Now()}
}

// Register adds a named readiness probe: check returns nil when the
// component is ready, an error describing why not otherwise.
func (h *Health) Register(name string, check func() error) {
	if h == nil || check == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.probes = append(h.probes, healthProbe{name: name, check: check})
}

// ProbeResult is one probe's outcome in the /readyz JSON document.
type ProbeResult struct {
	Name  string `json:"name"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// ReadySnapshot is the /readyz JSON document.
type ReadySnapshot struct {
	Ready  bool          `json:"ready"`
	Probes []ProbeResult `json:"probes"`
}

// Check evaluates every probe, returning the aggregate snapshot with
// per-probe outcomes sorted by name.
func (h *Health) Check() ReadySnapshot {
	s := ReadySnapshot{Ready: true, Probes: []ProbeResult{}}
	if h == nil {
		return s
	}
	h.mu.Lock()
	probes := append([]healthProbe(nil), h.probes...)
	h.mu.Unlock()
	for _, p := range probes {
		r := ProbeResult{Name: p.name, OK: true}
		if err := p.check(); err != nil {
			r.OK = false
			r.Error = err.Error()
			s.Ready = false
		}
		s.Probes = append(s.Probes, r)
	}
	sort.Slice(s.Probes, func(i, j int) bool { return s.Probes[i].Name < s.Probes[j].Name })
	return s
}

// healthzHandler serves liveness: always 200 with uptime — reaching the
// handler at all proves the process is up and its debug listener serving.
func (h *Health) healthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		uptime := time.Duration(0)
		if h != nil {
			uptime = time.Since(h.start)
		}
		writeJSON(w, http.StatusOK, struct {
			Status   string `json:"status"`
			UptimeNS int64  `json:"uptime_ns"`
		}{"ok", uptime.Nanoseconds()})
	})
}

// readyzHandler serves readiness: 200 when every probe passes, 503
// otherwise, with the per-probe JSON breakdown either way.
func (h *Health) readyzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := h.Check()
		status := http.StatusOK
		if !snap.Ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, snap)
	})
}
