// Package telemetry is the simulator's dependency-free instrumentation
// layer: race-safe atomic counters and gauges, contention-striped log2
// histograms, and named scoped registries with table and JSON
// snapshots. It imports no net/http: the HTTP surfaces (/metrics, the
// dashboard, the pprof profiles) live in internal/dashboard and
// internal/obs.
//
// The central design constraint is that instrumentation must cost
// (almost) nothing when disabled. Every metric type and the Sink handle
// are nil-safe: a nil *Counter, *Gauge, *Histogram, or *Sink accepts
// every method as a no-op, so instrumented hot paths hold plain
// pointers, threaded through their constructors, and never branch on a
// separate "enabled" flag. The package test suite asserts the nil paths
// allocate zero bytes.
//
// The same constraint applies at link time: this package deliberately
// imports nothing heavier than sync/atomic, io, and encoding/json, so
// instrumented packages (internal/sim, internal/campaign) never drag
// the HTTP stack into a binary. That split is measured, not
// theoretical -- blank-importing net/http from the simulator's
// dependency graph cost several percent of end-to-end throughput before
// any probe ran.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Counter is a monotonically increasing, race-safe counter. The zero
// value is ready to use; a nil *Counter is a valid, permanently
// disabled counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a race-safe last-written value. The zero value is ready to
// use; a nil *Gauge is a valid, permanently disabled gauge.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram buckets and striping. Buckets are fixed log2 ranges: bucket
// b counts observations v with bits.Len64(v) == b, i.e. bucket 0 holds
// v == 0 and bucket b >= 1 holds 2^(b-1) <= v < 2^b. The fixed layout
// keeps Observe allocation-free and snapshots mergeable.
const (
	histBuckets = 65 // bits.Len64 ranges over 0..64
	histStripes = 8  // power of two; see stripeIndex
)

// histStripe is one independently updated copy of the bucket array,
// padded to its own cache lines so concurrent writers on different
// stripes do not false-share.
type histStripe struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
	_       [64]byte
}

// Histogram is a race-safe latency/size histogram with fixed log2
// buckets. Writers are striped across cache-line-padded copies of the
// bucket array (stripe chosen from the observer's stack address, a
// cheap goroutine-affine hash), so concurrent Observe calls from a
// worker pool mostly touch distinct cache lines; Snapshot sums the
// stripes. The zero value is ready to use; a nil *Histogram is a
// valid, permanently disabled histogram.
type Histogram struct {
	stripes [histStripes]histStripe
}

// stripeIndex derives a stripe from the caller's stack address.
// Goroutine stacks are distinct allocations, so concurrent observers
// spread across stripes without any shared state or per-goroutine ID.
func stripeIndex() int {
	var probe byte
	return int(uintptr(unsafe.Pointer(&probe)) >> 10 & (histStripes - 1))
}

// bucketOf maps an observation to its log2 bucket.
func bucketOf(v uint64) int { return bits.Len64(v) }

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	s := &h.stripes[stripeIndex()]
	s.count.Add(1)
	s.sum.Add(v)
	s.buckets[bucketOf(v)].Add(1)
}

// HistogramSnapshot is a merged, point-in-time view of a histogram.
type HistogramSnapshot struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	// Buckets lists only the occupied log2 ranges, in ascending order.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
	// P50, P95 and P99 are quantile estimates interpolated inside the
	// log2 buckets (see Quantile). Populated by Snapshot; zero when the
	// histogram is empty.
	P50 float64 `json:"p50,omitempty"`
	P95 float64 `json:"p95,omitempty"`
	P99 float64 `json:"p99,omitempty"`
}

// HistogramBucket is one occupied log2 range [Lo, Hi].
type HistogramBucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// Mean returns the average observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed values
// by locating the log2 bucket holding the nearest-rank observation and
// interpolating linearly inside it. The estimate always lies within the
// bounds of the bucket that contains the true quantile, so the absolute
// error is at most the bucket width (Hi - Lo) and the relative error is
// at most 1x (the bucket spans one octave). Returns 0 for an empty
// snapshot; q is clamped to (0, 1].
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank target in [1, Count].
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		if cum+b.Count >= target {
			// Interpolate inside the bucket: observation ranks are spread
			// uniformly across [Lo, Hi].
			frac := float64(target-cum) / float64(b.Count)
			return float64(b.Lo) + frac*float64(b.Hi-b.Lo)
		}
		cum += b.Count
	}
	// Torn read (Count disagrees with bucket sum): report the top bound.
	if n := len(s.Buckets); n > 0 {
		return float64(s.Buckets[n-1].Hi)
	}
	return 0
}

// fillQuantiles stamps the derived P50/P95/P99 estimates.
func (s *HistogramSnapshot) fillQuantiles() {
	if s.Count == 0 {
		return
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
}

// Snapshot merges the stripes. Concurrent Observe calls may or may not
// be included; the result is always internally consistent enough for
// reporting (Count >= sum of bucket counts is not guaranteed during a
// torn read, so Count is recomputed from the merged buckets).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var merged [histBuckets]uint64
	var sum uint64
	for i := range h.stripes {
		s := &h.stripes[i]
		sum += s.sum.Load()
		for b := range s.buckets {
			merged[b] += s.buckets[b].Load()
		}
	}
	snap := HistogramSnapshot{Sum: sum}
	for b, n := range merged {
		if n == 0 {
			continue
		}
		snap.Count += n
		lo, hi := bucketBounds(b)
		snap.Buckets = append(snap.Buckets, HistogramBucket{Lo: lo, Hi: hi, Count: n})
	}
	snap.fillQuantiles()
	return snap
}

// bucketBounds returns the inclusive value range of log2 bucket b.
func bucketBounds(b int) (lo, hi uint64) {
	if b == 0 {
		return 0, 0
	}
	lo = uint64(1) << (b - 1)
	if b == 64 {
		return lo, ^uint64(0)
	}
	return lo, uint64(1)<<b - 1
}
