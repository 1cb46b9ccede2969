// Package server is the readduo-serve query engine: an HTTP/JSON front
// end over the analytical stack (drift LER tables, scrub-policy checks,
// scheme introspection, Monte-Carlo endurance studies, and bounded
// full-system scheme comparisons).
//
// Every query endpoint is a pure function of a small parameter spec, so
// the serving core is a deduplicating cache pipeline:
//
//	request -> canonical key -> LRU byte cache
//	                        -> singleflight (concurrent identical specs
//	                           share one computation)
//	                        -> bounded worker pool (campaign.Pool) with
//	                           queue-depth backpressure (429 + Retry-After)
//
// Responses are cached as marshaled bytes, so identical specs always get
// byte-identical bodies regardless of cache state or map iteration
// order. Per-request deadlines and client disconnects propagate into the
// compute kernels (sim.RunContext, lifetime.SimulateMCContext): a flight
// whose last waiter walks away is cancelled, not finished for nobody.
//
// Every Server is also a worker: it answers POST /compute, executing a
// spec routed to it by another node's Remote backend on its own pool
// (never through its cache tiers or its own Remote backend), so any
// readduo-serve named in another node's -remote-workers serves as one.
//
// The package binds no profiling surface: net/http/pprof is served on
// the -dash-addr listener that internal/obs starts, which keeps it out
// of this package's import graph.
package server
