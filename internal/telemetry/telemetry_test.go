package telemetry

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	var h *Histogram
	h.Observe(12)
	if snap := h.Snapshot(); snap.Count != 0 {
		t.Fatal("nil histogram must be empty")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	var s *Sink
	if s.Counter("x") != nil || s.Gauge("x") != nil || s.Histogram("x") != nil || s.Sub("y") != nil {
		t.Fatal("nil sink must hand out nil metrics")
	}
	if r.Sink("scope") != nil {
		t.Fatal("nil registry must hand out a nil sink")
	}
}

// TestNilSinkFastPathAllocatesNothing is the disabled-telemetry cost
// contract: the whole nil chain — sink lookup, counter add, histogram
// observe — must allocate zero bytes.
func TestNilSinkFastPathAllocatesNothing(t *testing.T) {
	var r *Registry
	s := r.Sink("sim")
	c := s.Counter("reads")
	h := s.Histogram("cells")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		h.Observe(17)
		s.Counter("more").Inc()
	})
	if allocs != 0 {
		t.Fatalf("nil-sink fast path allocated %.1f bytes/op, want 0", allocs)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 1, 2, 3, 4, 7, 8, 1023, 1024} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 10 {
		t.Fatalf("count = %d, want 10", snap.Count)
	}
	if snap.Sum != 0+1+1+2+3+4+7+8+1023+1024 {
		t.Fatalf("sum = %d", snap.Sum)
	}
	want := map[[2]uint64]uint64{
		{0, 0}:       1, // 0
		{1, 1}:       2, // 1, 1
		{2, 3}:       2, // 2, 3
		{4, 7}:       2, // 4, 7
		{8, 15}:      1, // 8
		{512, 1023}:  1, // 1023
		{1024, 2047}: 1, // 1024
	}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("got %d occupied buckets, want %d: %+v", len(snap.Buckets), len(want), snap.Buckets)
	}
	for _, b := range snap.Buckets {
		if want[[2]uint64{b.Lo, b.Hi}] != b.Count {
			t.Fatalf("bucket [%d,%d] count %d unexpected", b.Lo, b.Hi, b.Count)
		}
	}
}

// TestHistogramQuantileErrorBound pins the quantile estimator's
// documented guarantee against exact nearest-rank quantiles: the
// estimate must land inside the log2 bucket that contains the true
// quantile, so the absolute error is bounded by that bucket's width
// (equivalently, estimate/exact stays within [0.5, 2] for non-zero
// values). Exercised over several distributions so the bound isn't an
// artifact of one shape.
func TestHistogramQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	distributions := map[string]func() uint64{
		"uniform":   func() uint64 { return uint64(rng.Intn(100_000)) },
		"heavytail": func() uint64 { return uint64(rng.ExpFloat64() * 500) },
		"bimodal": func() uint64 {
			if rng.Intn(2) == 0 {
				return uint64(3 + rng.Intn(5))
			}
			return uint64(40_000 + rng.Intn(5000))
		},
	}
	quantiles := []float64{0.50, 0.95, 0.99}
	for name, gen := range distributions {
		var h Histogram
		values := make([]uint64, 20_000)
		for i := range values {
			values[i] = gen()
			h.Observe(values[i])
		}
		sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
		snap := h.Snapshot()
		for _, q := range quantiles {
			exact := values[int(float64(len(values))*q)-1] // nearest rank
			got := snap.Quantile(q)
			lo, hi := bucketBounds(bucketOf(exact))
			if got < float64(lo) || got > float64(hi) {
				t.Errorf("%s q=%.2f: estimate %.1f outside exact's bucket [%d,%d] (exact %d)",
					name, q, got, lo, hi, exact)
			}
			if exact > 0 {
				if ratio := got / float64(exact); ratio < 0.5 || ratio > 2 {
					t.Errorf("%s q=%.2f: relative error %.2fx exceeds octave bound (est %.1f, exact %d)",
						name, q, ratio, got, exact)
				}
			}
		}
	}
}

// TestHistogramQuantileEdges covers the degenerate shapes.
func TestHistogramQuantileEdges(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	var h Histogram
	h.Observe(0)
	h.Observe(0)
	snap := h.Snapshot()
	if got := snap.Quantile(0.99); got != 0 {
		t.Fatalf("all-zero quantile = %v, want 0", got)
	}
	var single Histogram
	single.Observe(100)
	s := single.Snapshot()
	for _, q := range []float64{0.01, 0.5, 1} {
		if got := s.Quantile(q); got < 64 || got > 127 {
			t.Fatalf("single-value q=%v = %v, want within [64,127]", q, got)
		}
	}
	if s.P50 == 0 || s.P95 == 0 || s.P99 == 0 {
		t.Fatalf("snapshot quantiles not populated: %+v", s)
	}
}

// TestConcurrentWritersAndSnapshots exercises the race-safety claims
// under -race: counters, gauges, and striped histograms written from
// many goroutines while snapshots are taken concurrently.
func TestConcurrentWritersAndSnapshots(t *testing.T) {
	reg := NewRegistry("race")
	sink := reg.Sink("hot")
	const (
		writers = 8
		perG    = 5000
	)
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() { // snapshot-while-writing
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				snap := reg.Snapshot()
				var sb strings.Builder
				if err := snap.WriteTable(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			c := sink.Counter("events")
			h := sink.Histogram("sizes")
			g := sink.Gauge("level")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(uint64(i & 1023))
				g.Set(int64(i))
				// Late lookups must also be race-free.
				sink.Counter("events").Add(1)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	<-snapDone

	snap := reg.Snapshot()
	if got := snap.Counters["hot.events"]; got != writers*perG*2 {
		t.Fatalf("events = %d, want %d", got, writers*perG*2)
	}
	h := snap.Histograms["hot.sizes"]
	if h.Count != writers*perG {
		t.Fatalf("histogram count = %d, want %d", h.Count, writers*perG)
	}
}
