package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {400, 97.5},
		{999, 98.9}, {1000, 99}, {1200, 99}, {100000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.n >= 20 {
			beyond := float64(tc.n) * (1 - tailPercentile(tc.n)/100)
			if beyond < minTailSamples-1e-9 {
				t.Errorf("n=%d: only %.2f samples beyond p%v", tc.n, beyond, tailPercentile(tc.n))
			}
		}
	}
}

func TestSummarizeReportsTailAtSupportedPercentile(t *testing.T) {
	lat := make([]time.Duration, 1000)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond // 1..1000 ms
	}
	s := summarize(lat)
	if s.N != 1000 || s.TailPct != 99 {
		t.Fatalf("n=%d tail pct=%v, want 1000 and 99", s.N, s.TailPct)
	}
	if math.Abs(s.P50-500.5) > 1e-9 || math.Abs(s.Tail-990.01) > 1e-9 {
		t.Errorf("p50=%v p99=%v, want 500.5 and 990.01", s.P50, s.Tail)
	}
	s = summarize(lat[:100])
	if s.TailPct != 90 || math.Abs(s.Tail-90.1) > 1e-9 {
		t.Errorf("100 samples: p%v = %v, want p90 = 90.1", s.TailPct, s.Tail)
	}
}

// The expected cut points are what Python's statistics.quantiles(x, n=4)
// prints for the same inputs.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2}, [3]float64{1.4375, 2.75, 7.625}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		got := quartiles(tc.in)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}
