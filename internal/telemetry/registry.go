package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"
)

// Registry is a named collection of metrics. Metrics are created (or
// adopted) on first use and live for the registry's lifetime; lookups
// and creations are safe for concurrent use. A nil *Registry is a
// valid, permanently disabled registry: every lookup returns a nil
// metric, which in turn ignores every update.
type Registry struct {
	name string

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry with the given name (the name
// prefixes the /metrics exposition and the snapshot table heading).
func NewRegistry(name string) *Registry {
	return &Registry{
		name:     name,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Name returns the registry name ("" for nil).
func (r *Registry) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// RegisterCounter adopts an externally owned counter (e.g. a
// process-global probe) under the given name so snapshots include it.
// An existing metric with the same name is replaced.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// Sink returns the named scope of the registry: the nil-safe probe
// handle instrumented code holds. Metric names created through a sink
// are prefixed "scope.". A nil registry yields a nil sink, and a nil
// sink yields nil metrics, so the whole chain is safe to call with
// telemetry disabled.
func (r *Registry) Sink(scope string) *Sink {
	if r == nil {
		return nil
	}
	return &Sink{reg: r, prefix: scope + "."}
}

// Sink is a named scope of a Registry. See Registry.Sink.
type Sink struct {
	reg    *Registry
	prefix string
}

// Sub returns a nested scope ("parent.child.").
func (s *Sink) Sub(scope string) *Sink {
	if s == nil {
		return nil
	}
	return &Sink{reg: s.reg, prefix: s.prefix + scope + "."}
}

// Counter returns the scoped counter (nil when the sink is nil).
func (s *Sink) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.reg.Counter(s.prefix + name)
}

// Gauge returns the scoped gauge (nil when the sink is nil).
func (s *Sink) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.reg.Gauge(s.prefix + name)
}

// Histogram returns the scoped histogram (nil when the sink is nil).
func (s *Sink) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	return s.reg.Histogram(s.prefix + name)
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Name       string                       `json:"name"`
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry. Concurrent updates racing the
// snapshot land in this copy or the next; each individual metric read
// is atomic. A nil registry yields a zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()

	snap := Snapshot{
		Name:       r.name,
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		snap.Histograms[k] = h.Snapshot()
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteTable renders the snapshot as an aligned, sorted table.
func (s Snapshot) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if s.Name != "" {
		fmt.Fprintf(tw, "telemetry snapshot: %s\n", s.Name)
	}
	for _, k := range sortedKeys(s.Counters) {
		fmt.Fprintf(tw, "%s\t%d\n", k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		fmt.Fprintf(tw, "%s\t%d\n", k, s.Gauges[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		fmt.Fprintf(tw, "%s\tn=%d sum=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f\n",
			k, h.Count, h.Sum, h.Mean(), h.P50, h.P95, h.P99)
		for _, b := range h.Buckets {
			fmt.Fprintf(tw, "  [%d, %d]\t%d\n", b.Lo, b.Hi, b.Count)
		}
	}
	return tw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
