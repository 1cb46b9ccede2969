package server

import "readduo/internal/telemetry"

// Worker is a Server. Any Server answers POST /compute, so a worker is
// just a node named in another node's RemoteWorkers.
//
// Deprecated: use Server; this shim remains for existing callers.
type Worker = Server

// WorkerConfig sizes a Worker: a default Server on Addr.
//
// Deprecated: use Config.
type WorkerConfig struct {
	Addr     string
	Registry *telemetry.Registry
}

// NewWorker builds a default Server listening on cfg.Addr.
//
// Deprecated: use New.
func NewWorker(cfg WorkerConfig) *Worker {
	s, err := New(Config{Addr: cfg.Addr, Registry: cfg.Registry})
	if err != nil {
		// New fails only on a disk tier or a remote worker list, and this
		// config sets neither.
		panic(err)
	}
	return s
}
