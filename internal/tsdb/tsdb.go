// Package tsdb is the streaming half of the telemetry layer: a small,
// dependency-free time-series store that turns periodic
// telemetry.Registry snapshots into queryable history.
//
// The pieces compose bottom-up:
//
//   - ring: a fixed-capacity circular buffer of timestamped points, one
//     per series. Appends are O(1) and old points fall off the back, so
//     memory is bounded no matter how long a service runs.
//   - Store: a named collection of rings with an optional append-only
//     on-disk segment log (segment.go). With a directory configured,
//     every appended tick is also framed to disk, and Open replays the
//     segments back into the rings so a restarted service re-serves its
//     pre-restart history.
//   - Collector (collector.go): the periodic pump. Every interval it
//     snapshots a telemetry.Registry, flattens the snapshot into samples
//     (counters and gauges as-is; histograms as derived .count/.mean/
//     .p50/.p95/.p99 series), appends the changed ones to the Store, and
//     publishes the full sample set to subscribers (the dashboard's SSE
//     stream).
//   - WriteProm (promtext.go): renders one snapshot in the Prometheus
//     text exposition format for /metrics scrapers.
//
// Like the telemetry package it feeds from, tsdb deliberately imports
// no HTTP machinery; the handlers that expose it live in
// internal/dashboard.
package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Point is one observation of one series.
type Point struct {
	UnixMS int64   `json:"t"`
	Value  float64 `json:"v"`
}

// Sample names one observation inside a tick batch.
type Sample struct {
	Name  string
	Value float64
}

// Store sizing: memory is bounded per series, disk by the segment
// count (the oldest segment is deleted on rotation).
const (
	seriesPoints = 4096    // in-memory ring capacity per series
	segmentBytes = 1 << 20 // on-disk segment rotation threshold
	maxSegments  = 16      // retained segment files, including the active one
)

// Store holds one ring per series plus the optional segment log. All
// methods are safe for concurrent use. A nil *Store ignores appends and
// answers empty queries, mirroring the telemetry package's nil-metric
// contract.
type Store struct {
	points int // ring capacity per series

	mu     sync.RWMutex
	series map[string]*ring
	seg    *segmentLog // nil = memory only
}

// Open builds a Store. With dir == "" the store is memory-only. With a
// directory, existing segments are replayed into the rings (their torn
// tails repaired) and subsequent appends are framed to disk, so history
// survives a restart.
func Open(dir string) (*Store, error) {
	return open(dir, seriesPoints, segmentBytes, maxSegments)
}

// open is Open with explicit sizes, so tests can exercise eviction and
// rotation with small rings and segments.
func open(dir string, points int, segBytes int64, maxSegs int) (*Store, error) {
	s := &Store{points: points, series: make(map[string]*ring)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tsdb: create %s: %w", dir, err)
	}
	seg, err := openSegmentLog(dir, segBytes, maxSegs, func(t int64, samples []Sample) {
		s.appendMemory(t, samples)
	})
	if err != nil {
		return nil, err
	}
	s.seg = seg
	return s, nil
}

// Dir reports the segment directory ("" when memory-only or nil).
func (s *Store) Dir() string {
	if s == nil || s.seg == nil {
		return ""
	}
	return s.seg.dir
}

// Append records one tick: every sample lands in its series ring, and,
// with a segment log configured, the whole batch is framed to disk.
// Samples inside a tick should be pre-sorted by name (the Collector
// guarantees it) so on-disk frames are deterministic.
func (s *Store) Append(unixMS int64, samples []Sample) error {
	if s == nil || len(samples) == 0 {
		return nil
	}
	s.appendMemory(unixMS, samples)
	if s.seg != nil {
		return s.seg.append(unixMS, samples)
	}
	return nil
}

func (s *Store) appendMemory(unixMS int64, samples []Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, smp := range samples {
		r, ok := s.series[smp.Name]
		if !ok {
			r = newRing(s.points)
			s.series[smp.Name] = r
		}
		r.push(Point{UnixMS: unixMS, Value: smp.Value})
	}
}

// Query returns the retained points of one series at or after sinceMS,
// in ascending time order. The slice is the caller's to keep.
func (s *Store) Query(name string, sinceMS int64) []Point {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	r := s.series[name]
	s.mu.RUnlock()
	if r == nil {
		return nil
	}
	return r.since(sinceMS)
}

// Latest returns the most recent point of one series (ok == false when
// the series is unknown or empty).
func (s *Store) Latest(name string) (Point, bool) {
	if s == nil {
		return Point{}, false
	}
	s.mu.RLock()
	r := s.series[name]
	s.mu.RUnlock()
	if r == nil {
		return Point{}, false
	}
	return r.latest()
}

// Names lists every known series, sorted, so exposition and the
// dashboard see a deterministic order.
func (s *Store) Names() []string {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.series))
	for k := range s.series {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// SeriesCount reports how many series the store holds.
func (s *Store) SeriesCount() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.series)
}

// Sync forces buffered frames to stable storage (no-op when
// memory-only).
func (s *Store) Sync() error {
	if s == nil || s.seg == nil {
		return nil
	}
	return s.seg.sync()
}

// Close syncs and closes the segment log. The rings stay readable.
func (s *Store) Close() error {
	if s == nil || s.seg == nil {
		return nil
	}
	return s.seg.close()
}

// segmentPattern glob-matches segment files inside a store directory.
const segmentPattern = "*.seg"

// listSegments returns the store's segment paths in append order.
func listSegments(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, segmentPattern))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
