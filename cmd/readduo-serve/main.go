// Command readduo-serve exposes the ReadDuo reliability models as a
// batched, cached HTTP/JSON query service: drift LER tables, scrub-policy
// checks, scheme introspection, Monte-Carlo endurance studies, and bounded
// full-system scheme comparisons.
//
// Usage:
//
//	readduo-serve [-addr :8080] [-workers N] [-queue N] [-cache-bytes N]
//	              [-disk-cache DIR] [-disk-cache-bytes N]
//	              [-remote-workers host:port,host:port]
//	              [-request-timeout 30s] [-compute-timeout 30s]
//	              [-drain-timeout 30s]
//	              [-telemetry-interval 1s] [-telemetry-dir DIR]
//	              [-dash-addr :8090]
//
// The service answers identical specs with byte-identical cached bodies,
// coalesces concurrent identical requests into one computation, and sheds
// load with 429 + Retry-After once the worker queue saturates. SIGINT or
// SIGTERM starts a graceful drain: readiness flips to 503, in-flight
// requests finish (up to the drain timeout), then in-flight computations
// are cancelled.
//
// Every node also answers POST /compute on its own pool, so any
// readduo-serve is a worker for the nodes that name it. With
// -remote-workers, computations are routed across those nodes by
// consistent hashing of the canonical spec key, degrading to local
// compute when a worker fails. With -disk-cache, responses also persist
// in a size-bounded on-disk tier that survives restarts.
//
// With -telemetry-interval, a streaming collector samples the metric
// registry into an in-memory time-series store exposed at /api/series;
// -telemetry-dir persists that history across restarts, and -dash-addr
// serves a live web dashboard (with /metrics, an SSE stream and the
// net/http/pprof profiles) on its own listener. /metrics always serves
// the Prometheus text exposition, and /statusz carries per-endpoint SLO
// burn rates once the collector runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"readduo/internal/obs"
	"readduo/internal/server"
	"readduo/internal/slo"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "HTTP listen address")
		workers        = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue          = flag.Int("queue", 0, "admission queue depth beyond executing jobs (0 = 2x workers)")
		cacheBytes     = flag.Int64("cache-bytes", 64<<20, "in-heap response cache budget in bytes")
		diskCache      = flag.String("disk-cache", "", "directory for the on-disk cache tier (empty = off)")
		diskCacheBytes = flag.Int64("disk-cache-bytes", 0, "disk cache tier budget in bytes (0 = 256 MiB)")
		remoteWorkers  = flag.String("remote-workers", "", "comma-separated worker addresses host:port (empty = local compute)")
		requestTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request wall-time cap")
		computeTimeout = flag.Duration("compute-timeout", 0, "per-computation cap (0 = request timeout)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline")
		telemetryIntvl = flag.Duration("telemetry-interval", 0, "metric collection period (0 = off unless -telemetry-dir/-dash-addr)")
		telemetryDir   = flag.String("telemetry-dir", "", "directory persisting collected series across restarts (empty = in-memory)")
		dashAddr       = flag.String("dash-addr", "", "dashboard, /metrics and pprof listener address (empty = off)")
	)
	flag.Parse()

	if err := run(config{
		addr: *addr, workers: *workers, queue: *queue, cacheBytes: *cacheBytes,
		diskCache: *diskCache, diskCacheBytes: *diskCacheBytes,
		remoteWorkers:  splitAddrs(*remoteWorkers),
		requestTimeout: *requestTimeout, computeTimeout: *computeTimeout, drainTimeout: *drainTimeout,
		telemetryInterval: *telemetryIntvl, telemetryDir: *telemetryDir, dashAddr: *dashAddr,
	}, nil); err != nil {
		fmt.Fprintln(os.Stderr, "readduo-serve:", err)
		os.Exit(1)
	}
}

type config struct {
	addr              string
	workers, queue    int
	cacheBytes        int64
	diskCache         string
	diskCacheBytes    int64
	remoteWorkers     []string
	requestTimeout    time.Duration
	computeTimeout    time.Duration
	drainTimeout      time.Duration
	telemetryInterval time.Duration
	telemetryDir      string
	dashAddr          string
}

// defaultObjectives is the serving tier's SLO policy: every endpoint
// promises 99.9% availability; the cheap metadata endpoint also
// promises sub-100ms latency for 95% of requests. Compute endpoints get
// no latency objective — a 10M-cell Monte-Carlo run is legitimately
// slow, and an objective it cannot meet would burn budget forever.
func defaultObjectives() []slo.Objective {
	objectives := []slo.Objective{
		{Endpoint: "schemes", Availability: 0.999, LatencyMS: 100, LatencyTarget: 0.95},
	}
	for _, ep := range []string{"ler", "policy", "mc", "compare"} {
		objectives = append(objectives, slo.Objective{Endpoint: ep, Availability: 0.999})
	}
	return objectives
}

// splitAddrs parses a comma-separated address list, dropping empties so
// a trailing comma is harmless.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// run brings the service up and blocks until a termination signal has
// been fully drained. started, when non-nil, receives the bound address
// once the listener accepts (tests use it to drive real requests).
func run(cfg config, started func(addr string)) error {
	// Arm the drain before anything listens: once started reports
	// readiness a supervisor may send SIGTERM at any moment, and with no
	// handler installed Go's default action kills the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The service always runs with a live registry: its metrics are
	// scraped over /metrics while serving, not reported at exit.
	session, err := obs.Start(obs.Options{
		Name:              "readduo-serve",
		ForceRegistry:     true,
		TelemetryInterval: cfg.telemetryInterval,
		SeriesDir:         cfg.telemetryDir,
		DashAddr:          cfg.dashAddr,
		Logf:              log.Printf,
	})
	if err != nil {
		return err
	}
	defer session.Close()

	tracker := slo.NewTracker("server", defaultObjectives(), nil)
	srv, err := server.New(server.Config{
		Addr:           cfg.addr,
		Workers:        cfg.workers,
		QueueDepth:     cfg.queue,
		CacheBytes:     cfg.cacheBytes,
		DiskCacheDir:   cfg.diskCache,
		DiskCacheBytes: cfg.diskCacheBytes,
		RemoteWorkers:  cfg.remoteWorkers,
		RequestTimeout: cfg.requestTimeout,
		ComputeTimeout: cfg.computeTimeout,
		Registry:       session.Registry,
		Collector:      session.Collector,
		SLO:            tracker,
	})
	if err != nil {
		return err
	}
	session.StartCollector(srv.TelemetrySamples, tracker.Collect)
	if err := srv.Start(); err != nil {
		return err
	}
	log.Printf("serving on http://%s (healthz, readyz, statusz, compute, v1/{ler,policy,mc,compare,schemes})", srv.Addr())
	if n := len(cfg.remoteWorkers); n > 0 {
		log.Printf("routing compute across %d workers: %s", n, strings.Join(cfg.remoteWorkers, ", "))
	}
	if started != nil {
		started(srv.Addr())
	}

	<-ctx.Done()
	stop() // restore default signal handling: a second signal kills hard

	log.Printf("drain: waiting up to %s for in-flight requests", cfg.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Printf("drained cleanly")
	return nil
}
