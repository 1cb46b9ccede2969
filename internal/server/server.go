package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"readduo/internal/backend"
	"readduo/internal/cache"
	"readduo/internal/campaign"
	_ "readduo/internal/corpus" // register corpus:* scenarios for the spec grammar
	"readduo/internal/dashboard"
	"readduo/internal/slo"
	"readduo/internal/telemetry"
	"readduo/internal/tsdb"
)

// Config sizes a Server. The zero value is usable: every field has a
// production default applied by New.
type Config struct {
	// Addr is the listen address; empty selects ":8080". Use ":0" in
	// tests to grab an ephemeral port.
	Addr string
	// Workers bounds concurrent computations; <= 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds computations admitted beyond the executing ones;
	// past that the pool refuses and the server answers 429. <= 0
	// selects 2x workers.
	QueueDepth int
	// CacheBytes budgets the in-heap response cache tier; <= 0 selects
	// 64 MiB.
	CacheBytes int64
	// DiskCacheDir, when non-empty, adds an on-disk cache tier below the
	// in-heap one: entries evicted from (or missing in) the heap tier are
	// served from disk and promoted back on hit. The directory is created
	// if absent and survives restarts.
	DiskCacheDir string
	// DiskCacheBytes budgets the disk tier; <= 0 selects 256 MiB. Ignored
	// without DiskCacheDir.
	DiskCacheBytes int64
	// RemoteWorkers lists worker base addresses (host:port). When
	// non-empty the server routes computations across them by consistent
	// hashing of the canonical spec key, degrading to local compute when
	// a worker fails or its circuit is open.
	RemoteWorkers []string
	// Backend, when non-nil, replaces the backend entirely (tests inject
	// fault models here). Overrides RemoteWorkers.
	Backend backend.Backend
	// RequestTimeout caps a request's wall time end to end; <= 0 selects
	// 30 s.
	RequestTimeout time.Duration
	// ComputeTimeout caps one computation on a worker; <= 0 selects the
	// request timeout.
	ComputeTimeout time.Duration
	// Registry receives the server's telemetry; nil disables probes.
	Registry *telemetry.Registry
	// Collector, when non-nil, backs /api/series range queries with its
	// store and feeds the dashboard SSE stream. The server mounts the
	// routes but does not own the collector's lifecycle; the obs session
	// (or the test) starts and stops it.
	Collector *tsdb.Collector
	// SLO, when non-nil, scores per-endpoint objectives; its live status
	// is surfaced on /statusz and its burn-rate series flow through the
	// Collector as first-class series.
	SLO *slo.Tracker
}

func (c *Config) applyDefaults() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.DiskCacheBytes <= 0 {
		c.DiskCacheBytes = 256 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.ComputeTimeout <= 0 {
		c.ComputeTimeout = c.RequestTimeout
	}
}

// serverProbes is the HTTP layer's instrumentation (the store has its
// own); nil-safe like every telemetry metric.
type serverProbes struct {
	sink      *telemetry.Sink
	requests  *telemetry.Counter
	inflight  *telemetry.Gauge
	panics    *telemetry.Counter
	requestMS *telemetry.Histogram

	mu       sync.Mutex
	byStatus map[int]*telemetry.Counter
}

func newServerProbes(reg *telemetry.Registry) *serverProbes {
	s := reg.Sink("server")
	return &serverProbes{
		sink:      s,
		requests:  s.Counter("http.requests"),
		inflight:  s.Gauge("http.inflight"),
		panics:    s.Counter("http.panics"),
		requestMS: s.Histogram("http.request_ms"),
		byStatus:  make(map[int]*telemetry.Counter),
	}
}

// errsByStatus lazily interns one counter per error status code.
func (p *serverProbes) errsByStatus(status int) *telemetry.Counter {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.byStatus[status]
	if !ok {
		c = p.sink.Counter("http.errors." + strconv.Itoa(status))
		p.byStatus[status] = c
	}
	return c
}

// endpointProbes counts one handler's traffic under
// server.endpoint.<name>.*, the series the SLO tracker scores.
type endpointProbes struct {
	requests  *telemetry.Counter
	errors    *telemetry.Counter
	requestMS *telemetry.Histogram
}

func (p *serverProbes) endpoint(name string) endpointProbes {
	return endpointProbes{
		requests:  p.sink.Counter("endpoint." + name + ".requests"),
		errors:    p.sink.Counter("endpoint." + name + ".errors"),
		requestMS: p.sink.Histogram("endpoint." + name + ".request_ms"),
	}
}

// statusRecorder captures the response status so instrument can count
// server faults (>= 500) against the endpoint's error budget. Client
// faults (4xx) spend no budget: the service answered correctly.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Server is the readduo-serve HTTP service: a mux over the query
// handlers, a store (tiered cache + singleflight + backend), and a
// drain-aware lifecycle. Every Server is also a worker: it answers the
// POST /compute requests another node's Remote backend routes to it.
type Server struct {
	cfg         Config
	reg         *telemetry.Registry
	tel         *serverProbes
	pool        *campaign.Pool
	local       *backend.Local // this node's own pool; /compute runs here
	be          backend.Backend
	backendKind string
	remote      *backend.Remote // nil unless RemoteWorkers configured
	cache       *cache.Tiered
	store       *store
	mux         *http.ServeMux
	http        *http.Server

	// base is the server lifetime; cancelling it aborts every in-flight
	// computation during shutdown.
	base       context.Context
	cancelBase context.CancelFunc

	ready atomic.Bool
	ln    net.Listener
}

// New builds a Server from cfg (defaults applied; cfg is not mutated).
// It errors only on backend/disk-tier construction: an unusable cache
// directory or an empty worker list.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        cfg.Registry,
		tel:        newServerProbes(cfg.Registry),
		base:       base,
		cancelBase: cancel,
	}
	queueWait := s.tel.sink.Histogram("pool.queue_wait_ms")
	s.pool = campaign.NewPool(cfg.Workers, cfg.QueueDepth, func(d time.Duration) {
		queueWait.Observe(uint64(d.Milliseconds()))
	})

	s.local = backend.NewLocal(s.pool, newEvaluator(cfg.Registry), cfg.ComputeTimeout)
	switch {
	case cfg.Backend != nil:
		s.be = cfg.Backend
		s.backendKind = "custom"
	case len(cfg.RemoteWorkers) > 0:
		r, err := backend.NewRemote(cfg.RemoteWorkers, s.local, backend.RemoteOptions{
			ComputeTimeout: cfg.ComputeTimeout,
			Sink:           cfg.Registry.Sink("server"),
		})
		if err != nil {
			cancel()
			s.pool.Close()
			return nil, err
		}
		s.be = r
		s.remote = r
		s.backendKind = fmt.Sprintf("remote[%d]", len(cfg.RemoteWorkers))
	default:
		s.be = s.local
		s.backendKind = "local"
	}

	tiers := []cache.Tier{cache.NewLRU(cfg.CacheBytes)}
	if cfg.DiskCacheDir != "" {
		disk, err := cache.OpenDisk(cfg.DiskCacheDir, cfg.DiskCacheBytes)
		if err != nil {
			cancel()
			s.pool.Close()
			s.be.Close()
			return nil, err
		}
		tiers = append(tiers, disk)
	}
	s.cache = cache.NewTiered(cfg.Registry.Sink("server.cache"), tiers...)
	s.store = newStore(base, s.be, s.cache, cfg.Registry)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/ler", s.instrument("ler", s.handleSpec(opLER)))
	s.mux.HandleFunc("/v1/policy", s.instrument("policy", s.handleSpec(opPolicy)))
	s.mux.HandleFunc("/v1/mc", s.instrument("mc", s.handleSpec(opMC)))
	s.mux.HandleFunc("/v1/compare", s.instrument("compare", s.handleSpec(opCompare)))
	s.mux.HandleFunc("/v1/schemes", s.instrument("schemes", s.handleSchemes))
	s.mux.HandleFunc(backend.ComputePath, s.instrument("compute", s.handleCompute))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	// Observability routes are uninstrumented like the probes: scrapes
	// must not skew the request metrics they report.
	s.mux.HandleFunc("/metrics", dashboard.Metrics(cfg.Registry))
	s.mux.HandleFunc("/api/series", dashboard.Series(cfg.Collector.Store()))
	s.http = &http.Server{Handler: s.mux}
	return s, nil
}

// Handler exposes the full route table (useful under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// TelemetrySamples is a tsdb.CollectFunc contributing the depths that
// are point-in-time reads rather than registry metrics: pool and
// backend queue depth and the in-flight singleflight count. Hooked into
// the collector, they become plottable series next to the counters.
func (s *Server) TelemetrySamples(int64, telemetry.Snapshot) []tsdb.Sample {
	return []tsdb.Sample{
		{Name: "server.pool.depth", Value: float64(s.pool.Depth())},
		{Name: "server.backend.depth", Value: float64(s.be.Depth())},
		{Name: "server.flight.inflight", Value: float64(s.store.flights.Len())},
	}
}

// instrument wraps a handler with the per-request timeout, panic
// recovery, the request counters, and the per-endpoint SLO probes
// (requests, server-fault errors, latency histogram).
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.tel.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		s.tel.requests.Inc()
		ep.requests.Inc()
		s.tel.inflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		defer func() {
			s.tel.inflight.Add(-1)
			ms := uint64(time.Since(start).Milliseconds())
			s.tel.requestMS.Observe(ms)
			ep.requestMS.Observe(ms)
			if p := recover(); p != nil {
				s.tel.panics.Inc()
				s.writeJSON(rec, http.StatusInternalServerError,
					map[string]string{"error": fmt.Sprintf("panic: %v", p)})
			}
			if rec.status >= http.StatusInternalServerError {
				ep.errors.Inc()
			}
		}()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(rec, r.WithContext(ctx))
	}
}

// handleHealthz reports liveness: the process is up and serving HTTP,
// even while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{\"status\":\"ok\"}\n"))
}

// handleReadyz reports readiness: 503 before Start and during drain, so
// a load balancer stops routing before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("{\"status\":\"draining\"}\n"))
		return
	}
	w.Write([]byte(fmt.Sprintf("{\"status\":\"ready\",\"queue_depth\":%d}\n", s.pool.Depth())))
}

// statuszResponse is the /statusz wire shape: a live snapshot of the
// serving pipeline for operators and the multi-node smoke test.
type statuszResponse struct {
	Backend         string               `json:"backend"`
	Workers         []backend.NodeStatus `json:"workers,omitempty"`
	PoolDepth       int                  `json:"pool_depth"`
	BackendDepth    int                  `json:"backend_depth"`
	InflightFlights int                  `json:"inflight_flights"`
	CacheTiers      []cache.TierStats    `json:"cache_tiers"`
	SLO             []slo.EndpointStatus `json:"slo,omitempty"`
}

// handleStatusz reports the backend kind, per-tier cache statistics,
// pool depth and in-flight singleflight count. Uninstrumented like
// /healthz: status probes must not skew request metrics.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	resp := statuszResponse{
		Backend:         s.backendKind,
		PoolDepth:       s.pool.Depth(),
		BackendDepth:    s.be.Depth(),
		InflightFlights: s.store.flights.Len(),
		CacheTiers:      s.cache.Stats(),
	}
	if s.remote != nil {
		resp.Workers = s.remote.Nodes()
	}
	resp.SLO = s.cfg.SLO.Status()
	s.writeJSON(w, http.StatusOK, resp)
}

// Start binds the listener and serves until Shutdown. It returns once
// the listener is accepting (the caller learns the bound address via
// Addr); Serve errors after a clean Shutdown are swallowed.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.ready.Store(true)
	go func() {
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.tel.errsByStatus(http.StatusInternalServerError).Inc()
		}
	}()
	return nil
}

// Addr reports the bound listen address (resolved port after Start with
// ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown drains gracefully: readiness flips off, the HTTP server
// stops accepting and waits for handlers up to ctx's deadline, then the
// base context aborts whatever computations are still running, the pool
// drains, and the backend and cache tiers release their resources.
// Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	err := s.http.Shutdown(ctx)
	s.cancelBase()
	s.pool.Close()
	s.be.Close()
	s.cache.Close()
	return err
}
