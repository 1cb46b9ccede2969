// Command readduo-worker is the compute half of a scaled-out readduo
// deployment: it exposes POST /compute, executing canonical specs routed
// to it by a readduo-serve frontend (-remote-workers) over the same
// deterministic evaluator the frontend runs locally, so every node
// produces byte-identical responses.
//
// Usage:
//
//	readduo-worker [-addr :8081] [-workers N] [-queue N]
//	               [-compute-timeout 30s] [-drain-timeout 30s]
//	               [-max-mc-cells N] [-max-budget N]
//	               [-debug-addr :6061] [-trace-spans spans.jsonl]
//	               [-telemetry-interval 1s] [-telemetry-dir DIR]
//	               [-dash-addr :8091]
//
// Workers are stateless and cache nothing: the frontend's tiered cache
// is the single cache authority. The error taxonomy mirrors the
// frontend's (400 bad spec, 429 saturated + Retry-After, 503 draining,
// 504 compute timeout), which is what the frontend's circuit breaker
// keys on. SIGINT or SIGTERM drains gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"readduo/internal/obs"
	"readduo/internal/server"
)

func main() {
	var (
		addr           = flag.String("addr", ":8081", "HTTP listen address")
		workers        = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue          = flag.Int("queue", 0, "admission queue depth beyond executing jobs (0 = 2x workers)")
		computeTimeout = flag.Duration("compute-timeout", 30*time.Second, "per-computation cap")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline")
		maxMCCells     = flag.Int("max-mc-cells", 0, "Monte-Carlo population cap (0 = 10M)")
		maxBudget      = flag.Uint64("max-budget", 0, "comparison instruction-budget cap (0 = 2M)")
		debugAddr      = flag.String("debug-addr", "", "pprof/expvar listener address (empty = off)")
		traceSpans     = flag.String("trace-spans", "", "span trace JSONL path (empty = off)")
		telemetryIntvl = flag.Duration("telemetry-interval", 0, "metric collection period (0 = off unless -telemetry-dir/-dash-addr)")
		telemetryDir   = flag.String("telemetry-dir", "", "directory persisting collected series across restarts (empty = in-memory)")
		dashAddr       = flag.String("dash-addr", "", "live dashboard listener address (empty = off)")
	)
	flag.Parse()

	if err := run(config{
		addr: *addr, workers: *workers, queue: *queue,
		computeTimeout: *computeTimeout, drainTimeout: *drainTimeout,
		maxMCCells: *maxMCCells, maxBudget: *maxBudget,
		debugAddr: *debugAddr, traceSpans: *traceSpans,
		telemetryInterval: *telemetryIntvl, telemetryDir: *telemetryDir, dashAddr: *dashAddr,
	}, nil); err != nil {
		fmt.Fprintln(os.Stderr, "readduo-worker:", err)
		os.Exit(1)
	}
}

type config struct {
	addr              string
	workers, queue    int
	computeTimeout    time.Duration
	drainTimeout      time.Duration
	maxMCCells        int
	maxBudget         uint64
	debugAddr         string
	traceSpans        string
	telemetryInterval time.Duration
	telemetryDir      string
	dashAddr          string
}

// run brings the worker up and blocks until a termination signal has
// been fully drained. started, when non-nil, receives the bound address
// once the listener accepts.
func run(cfg config, started func(addr string)) error {
	// Arm the drain before anything listens: once started reports
	// readiness a supervisor may send SIGTERM at any moment, and with no
	// handler installed Go's default action kills the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	session, err := obs.Start(obs.Options{
		Name:              "readduo-worker",
		ForceRegistry:     true,
		DebugAddr:         cfg.debugAddr,
		TracePath:         cfg.traceSpans,
		TelemetryInterval: cfg.telemetryInterval,
		SeriesDir:         cfg.telemetryDir,
		DashAddr:          cfg.dashAddr,
		Logf:              log.Printf,
	})
	if err != nil {
		return err
	}
	defer session.Close()

	wk := server.NewWorker(server.WorkerConfig{
		Addr:             cfg.addr,
		Workers:          cfg.workers,
		QueueDepth:       cfg.queue,
		ComputeTimeout:   cfg.computeTimeout,
		MaxMCCells:       cfg.maxMCCells,
		MaxCompareBudget: cfg.maxBudget,
		Registry:         session.Registry,
		Collector:        session.Collector,
	})
	session.StartCollector(wk.TelemetrySamples)
	if err := wk.Start(); err != nil {
		return err
	}
	log.Printf("worker on http://%s (compute, healthz, readyz)", wk.Addr())
	if started != nil {
		started(wk.Addr())
	}

	<-ctx.Done()
	stop() // restore default signal handling: a second signal kills hard

	log.Printf("drain: waiting up to %s for in-flight computations", cfg.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := wk.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Printf("drained cleanly")
	return nil
}
