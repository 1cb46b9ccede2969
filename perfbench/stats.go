package main

import (
	"math"
	"sort"
	"time"
)

// minTailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minTailSamples = 10

// tailPercentile returns the highest percentile, capped at 99, that
// leaves at least minTailSamples of n samples beyond it. Below 20
// samples no such percentile reaches the median, and the median is
// returned.
func tailPercentile(n int) float64 {
	if n < 2*minTailSamples {
		return 50
	}
	p := 100 * (1 - float64(minTailSamples)/float64(n))
	return math.Min(99, math.Floor(p*10)/10)
}

// percentile interpolates linearly between the closest ranks of the
// sorted sample (p in [0, 100]). It returns 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// quartiles returns the three cut points of values the way Python's
// statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method), so spreads printed here match the ones a
// Python check computes from the same numbers. It needs two values.
func quartiles(values []float64) [3]float64 {
	data := sortedCopy(values)
	ld := len(data)
	var out [3]float64
	if ld < 2 {
		if ld == 1 {
			out = [3]float64{data[0], data[0], data[0]}
		}
		return out
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out
}

// median returns the middle of values (the mean of the middle two for
// an even count).
func median(values []float64) float64 {
	return percentile(sortedCopy(values), 50)
}

func sortedCopy(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

// latencySummary is a latency sample reduced to the numbers the
// benchmark reports: median, tail at the highest percentile the sample
// supports, and the sample count.
type latencySummary struct {
	N        int
	P50      float64 // ms
	Tail     float64 // ms
	TailPct  float64
	MeanMS   float64
	TotalSec float64
}

func summarize(lat []time.Duration) latencySummary {
	ms := make([]float64, len(lat))
	var total time.Duration
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
		total += d
	}
	sort.Float64s(ms)
	s := latencySummary{N: len(ms), TailPct: tailPercentile(len(ms)), TotalSec: total.Seconds()}
	s.P50 = percentile(ms, 50)
	s.Tail = percentile(ms, s.TailPct)
	if len(ms) > 0 {
		s.MeanMS = s.TotalSec * 1000 / float64(len(ms))
	}
	return s
}

func sum(values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return sum(values) / float64(len(values))
}
