// Package obs wires the telemetry layer into the command-line tools.
// Every command shares the same observability flags, the same bootstrap
// order (registry, cache probes, series store, operator listener), and
// the same exit report (snapshot table plus telemetry.json); obs
// centralizes that plumbing so the commands stay focused on their
// evaluation logic. The registry counts only work the process does:
// obs seeds no metric of its own.
//
// The operator listener (-dash-addr) is the one HTTP surface obs
// starts: the live dashboard, /events, /metrics and /api/series from
// internal/dashboard plus the net/http/pprof profiles. It is started
// here rather than in internal/dashboard so that net/http/pprof stays
// out of internal/server's import graph.
//
// A Session started with every feature disabled is an inert value:
// its Registry is nil, which the telemetry package treats as
// permanently disabled probes, so commands can thread the session
// through unconditionally.
package obs

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"readduo/internal/dashboard"
	"readduo/internal/sim"
	"readduo/internal/telemetry"
	"readduo/internal/tsdb"
)

// Options selects which observability features a command enables.
type Options struct {
	// Name is the registry name, conventionally the command name. It
	// heads the snapshot table and prefixes the /metrics names.
	Name string
	// Telemetry enables the metric registry and the exit report
	// (snapshot table plus JSONPath). The -telemetry flag.
	Telemetry bool
	// JSONPath is where Report writes the snapshot JSON; empty
	// selects "telemetry.json".
	JSONPath string
	// ForceRegistry guarantees a live Registry even when no other
	// option asks for one. Long-running services (readduo-serve) set
	// it: their metrics are scraped over HTTP while running, so a
	// registry must exist regardless of whether an exit report or
	// operator listener was requested.
	ForceRegistry bool
	// TelemetryInterval enables the streaming collector: every interval
	// the registry is snapshotted, flattened, diffed, and appended to
	// the time-series store. The -telemetry-interval flag. Implies a
	// live registry. <= 0 disables the collector unless SeriesDir or
	// DashAddr is set, in which case 1s is used.
	TelemetryInterval time.Duration
	// SeriesDir, when non-empty, persists collected series to an
	// append-only segment log in that directory, so a restart re-serves
	// history over /api/series. The -telemetry-dir flag. Empty keeps
	// the store memory-only.
	SeriesDir string
	// DashAddr, when non-empty, starts the operator listener on that
	// address: the live web dashboard, /events, /metrics, /api/series
	// and /debug/pprof/. The -dash-addr flag. Implies the collector.
	DashAddr string
	// Logf, when non-nil, receives one-line startup notices (the
	// bound listener address). Defaults to silent.
	Logf func(format string, args ...any)
}

// Session is a command's live observability state.
type Session struct {
	// Registry is the command's metric registry; nil unless
	// -telemetry, ForceRegistry or the collector asked for one.
	Registry *telemetry.Registry
	// Collector streams registry snapshots into the time-series store;
	// nil (inert) unless TelemetryInterval, SeriesDir or DashAddr was
	// given. It is built but not started: commands register their
	// CollectFuncs (server depths, SLO tracker) with AddCollect, then
	// call StartCollector.
	Collector *tsdb.Collector

	report   bool
	jsonPath string
	store    *tsdb.Store

	// dash is the operator listener; dashLn its bound listener and
	// dashDone closed once its Serve goroutine has returned.
	dash     *http.Server
	dashLn   net.Listener
	dashDone chan struct{}
}

// Start brings up the requested observability features. The returned
// session is non-nil even when everything is disabled; Close it when
// the command exits.
func Start(o Options) (*Session, error) {
	s := &Session{report: o.Telemetry, jsonPath: o.JSONPath}
	if s.jsonPath == "" {
		s.jsonPath = "telemetry.json"
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	collect := o.TelemetryInterval > 0 || o.SeriesDir != "" || o.DashAddr != ""
	if !o.Telemetry && !o.ForceRegistry && !collect {
		return s, nil
	}
	s.Registry = telemetry.NewRegistry(o.Name)
	sim.RegisterCacheTelemetry(s.Registry)
	if collect {
		store, err := tsdb.Open(o.SeriesDir)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("obs: series store: %w", err)
		}
		s.store = store
		s.Collector = tsdb.NewCollector(s.Registry, store, o.TelemetryInterval)
		if o.SeriesDir != "" {
			logf("series history in %s", o.SeriesDir)
		}
		if o.DashAddr != "" {
			if err := s.serveDash(o.DashAddr, logf); err != nil {
				s.Close()
				return nil, err
			}
			logf("dashboard on http://%s/ (metrics at /metrics, profiles at /debug/pprof/)", s.dashLn.Addr())
		}
	}
	return s, nil
}

// serveDash binds addr and serves the operator listener until Close:
// the dashboard routes plus the net/http/pprof profiles.
func (s *Session) serveDash(addr string, logf func(string, ...any)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs: dashboard listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", dashboard.Handler(s.Registry, s.Collector))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.dash = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s.dashLn = ln
	s.dashDone = make(chan struct{})
	go func() {
		defer close(s.dashDone)
		if err := s.dash.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("dashboard listener stopped: %v", err)
		}
	}()
	return nil
}

// StartCollector launches the collector loop after registering any
// extra CollectFuncs. Nil-safe in every position: with the collector
// disabled this is a no-op, so commands call it unconditionally once
// their server (or simulator) is built.
func (s *Session) StartCollector(collects ...tsdb.CollectFunc) {
	if s == nil || s.Collector == nil {
		return
	}
	for _, fn := range collects {
		s.Collector.AddCollect(fn)
	}
	s.Collector.Start()
}

// Report prints the snapshot table to w and writes the snapshot JSON
// next to the command's results. No-op unless -telemetry was given.
func (s *Session) Report(w io.Writer) error {
	if s == nil || !s.report || s.Registry == nil {
		return nil
	}
	snap := s.Registry.Snapshot()
	if err := snap.WriteTable(w); err != nil {
		return err
	}
	f, err := os.Create(s.jsonPath)
	if err != nil {
		return fmt.Errorf("obs: telemetry json: %w", err)
	}
	werr := snap.WriteJSON(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return cerr
	}
	fmt.Fprintf(w, "telemetry snapshot written to %s\n", s.jsonPath)
	return nil
}

// Close tears the session down: the operator listener stops, then the
// collector takes its final poll and the series store is closed.
// Nil-safe.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	var first error
	// Dashboard first (stops the SSE readers), then the collector (one
	// final poll + sync), then the store the collector was writing to.
	if s.dash != nil {
		if err := s.dash.Close(); err != nil {
			first = err
		}
		<-s.dashDone
	}
	s.Collector.Stop()
	if err := s.store.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
