// Package ops is the live operations plane for long-running drivers:
// a real HTTP server (the only wall-clock component in the tree)
// exposing Prometheus-style /metrics, a /healthz liveness probe, a
// /progress JSON snapshot, and net/http/pprof for profiling the
// simulator process itself.
//
// The server never touches a running engine. Drivers report progress
// between runs (StartRun/FinishRun) or from their own heartbeat
// goroutine; every handler reads a mutex-guarded copy. Serving is
// therefore purely observational: a soak with -serve produces
// byte-identical simulation results to one without.
package ops

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"es2/internal/telemetry"
)

// maxRecentRuns bounds the per-run history kept for /progress.
const maxRecentRuns = 64

// RunUpdate is one finished run's contribution to the plane's totals.
type RunUpdate struct {
	Name          string  `json:"name"`
	Seed          int64   `json:"seed"`
	EventsFired   uint64  `json:"events_fired"`
	SimSeconds    float64 `json:"sim_seconds"`
	WallSeconds   float64 `json:"wall_seconds"`
	EventsPerSec  float64 `json:"events_per_sec"`
	AlertsFired   uint64  `json:"alerts_fired"`
	AlertsCleared uint64  `json:"alerts_cleared"`
	AlertsActive  uint64  `json:"alerts_active"`
}

// Progress is the /progress JSON document.
type Progress struct {
	UptimeSeconds float64     `json:"uptime_seconds"`
	RunsStarted   uint64      `json:"runs_started"`
	RunsFinished  uint64      `json:"runs_finished"`
	CurrentRun    string      `json:"current_run,omitempty"`
	CurrentSeed   int64       `json:"current_seed,omitempty"`
	EventsFired   uint64      `json:"events_fired"`
	SimSeconds    float64     `json:"sim_seconds"`
	EventsPerSec  float64     `json:"events_per_sec"`
	AlertsFired   uint64      `json:"alerts_fired"`
	AlertsCleared uint64      `json:"alerts_cleared"`
	AlertsActive  uint64      `json:"alerts_active"`
	Recent        []RunUpdate `json:"recent,omitempty"`
}

// Server is the ops plane. Create with Serve, stop with Close.
type Server struct {
	mu      sync.Mutex
	start   time.Time
	started uint64
	done    uint64
	curName string
	curSeed int64

	events     uint64
	simSec     float64
	fired      uint64
	cleared    uint64
	active     uint64
	lastEvRate float64
	recent     []RunUpdate

	lis net.Listener
	srv *http.Server
}

// Serve starts the plane on addr (":0" picks a free port). The
// listener is bound synchronously, so a non-error return means the
// endpoints are live; serving then proceeds on a background goroutine.
func Serve(addr string) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ops: listen %s: %w", addr, err)
	}
	s := &Server{start: time.Now(), lis: lis}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(lis) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr is the bound listen address ("127.0.0.1:43210").
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the listener and all handlers.
func (s *Server) Close() error { return s.srv.Close() }

// StartRun records that a run began. Call between runs only — never
// from inside a simulation.
func (s *Server) StartRun(name string, seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.started++
	s.curName, s.curSeed = name, seed
}

// FinishRun folds one finished run into the totals.
func (s *Server) FinishRun(u RunUpdate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done++
	s.curName, s.curSeed = "", 0
	s.events += u.EventsFired
	s.simSec += u.SimSeconds
	s.fired += u.AlertsFired
	s.cleared += u.AlertsCleared
	s.active += u.AlertsActive
	if u.EventsPerSec == 0 && u.WallSeconds > 0 {
		u.EventsPerSec = float64(u.EventsFired) / u.WallSeconds
	}
	s.lastEvRate = u.EventsPerSec
	s.recent = append(s.recent, u)
	if len(s.recent) > maxRecentRuns {
		s.recent = s.recent[len(s.recent)-maxRecentRuns:]
	}
}

// snapshot copies the guarded state.
func (s *Server) snapshot() Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := Progress{
		UptimeSeconds: time.Since(s.start).Seconds(),
		RunsStarted:   s.started,
		RunsFinished:  s.done,
		CurrentRun:    s.curName,
		CurrentSeed:   s.curSeed,
		EventsFired:   s.events,
		SimSeconds:    s.simSec,
		EventsPerSec:  s.lastEvRate,
		AlertsFired:   s.fired,
		AlertsCleared: s.cleared,
		AlertsActive:  s.active,
	}
	p.Recent = append(p.Recent, s.recent...)
	return p
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.snapshot()) //nolint:errcheck // best-effort HTTP response
}

// handleMetrics hand-renders a lint-clean OpenMetrics exposition:
// every family introduced by # TYPE then # HELP, counter samples with
// the _total suffix, and a terminating # EOF.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p := s.snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# TYPE %s gauge\n# HELP %s %s\n%s %g\n", name, name, help, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# TYPE %s counter\n# HELP %s %s\n%s_total %g\n", name, name, help, name, v)
	}
	gauge("es2_ops_uptime_seconds", "Wall-clock seconds since the ops plane started.", p.UptimeSeconds)
	counter("es2_ops_runs_started", "Simulation runs started by this process.", float64(p.RunsStarted))
	counter("es2_ops_runs_finished", "Simulation runs finished by this process.", float64(p.RunsFinished))
	gauge("es2_ops_run_active", "Whether a simulation run is in flight (0 or 1).",
		float64(p.RunsStarted-p.RunsFinished))
	counter("es2_ops_engine_events", "Engine events fired across finished runs.", float64(p.EventsFired))
	counter("es2_ops_sim_seconds", "Simulated seconds completed across finished runs.", p.SimSeconds)
	gauge("es2_ops_events_per_sec", "Engine events per wall second of the most recent finished run.", p.EventsPerSec)
	counter("es2_slo_alerts_fired", "SLO alert fire events across finished runs.", float64(p.AlertsFired))
	counter("es2_slo_alerts_cleared", "SLO alert clear events across finished runs.", float64(p.AlertsCleared))
	gauge("es2_slo_alerts_active", "SLO alerts still firing at the end of the most recent runs.", float64(p.AlertsActive))
	gauge("es2_ops_goroutines", "Goroutines in the simulator process.", float64(runtime.NumGoroutine()))
	gauge("es2_ops_heap_bytes", "Live heap bytes in the simulator process.", float64(ms.HeapAlloc))

	// Per-run progress for the most recent runs, labeled by name/seed.
	// Deduplicated by (name, seed), last report winning, so a re-run
	// scenario never emits two samples with identical labels.
	if len(p.Recent) > 0 {
		b.WriteString("# TYPE es2_ops_run_events_per_sec gauge\n")
		b.WriteString("# HELP es2_ops_run_events_per_sec Engine events per wall second, per recent run.\n")
		last := map[string]RunUpdate{}
		var keys []string
		for _, u := range p.Recent {
			k := fmt.Sprintf("%s|%d", u.Name, u.Seed)
			if _, ok := last[k]; !ok {
				keys = append(keys, k)
			}
			last[k] = u
		}
		sort.Strings(keys)
		for _, k := range keys {
			u := last[k]
			fmt.Fprintf(&b, "es2_ops_run_events_per_sec{run=\"%s\",seed=\"%d\"} %g\n",
				telemetry.EscapeLabel(u.Name), u.Seed, u.EventsPerSec)
		}
	}
	b.WriteString("# EOF\n")

	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	fmt.Fprint(w, b.String()) //nolint:errcheck // best-effort HTTP response
}
