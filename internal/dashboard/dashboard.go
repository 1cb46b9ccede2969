// Package dashboard is the live observability surface for the serving
// tier: the /metrics Prometheus exposition, the /api/series range-query
// API over the tsdb store, an SSE tick stream, and an embedded
// single-file web UI that plots the serving pipeline in real time
// (request rate, latency quantiles, cache tiers, singleflight
// coalescing, pool depth, breaker transitions, SLO burn).
//
// Everything is dependency-free: the UI is one go:embed'ed HTML file
// with inline JS and CSS drawing on <canvas>, so the dashboard works
// on an air-gapped box with nothing but the binary. The handlers are
// plain http.HandlerFuncs so the serving mux mounts /metrics and
// /api/series directly, while the -dash-addr listener (started by
// internal/obs) mounts the full Handler.
package dashboard

import (
	"embed"
	"net/http"

	"readduo/internal/telemetry"
	"readduo/internal/tsdb"
)

//go:embed static/index.html
var staticFS embed.FS

// Handler builds the full dashboard route table: the UI at "/", the
// SSE stream at /events, plus /metrics and /api/series so the
// dashboard port is self-sufficient for scraping and backfill.
func Handler(reg *telemetry.Registry, c *tsdb.Collector) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", handleIndex)
	mux.HandleFunc("/events", Events(c))
	mux.HandleFunc("/metrics", Metrics(reg))
	mux.HandleFunc("/api/series", Series(c.Store()))
	return mux
}

func handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	page, err := staticFS.ReadFile("static/index.html")
	if err != nil {
		http.Error(w, "dashboard assets missing", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(page)
}
