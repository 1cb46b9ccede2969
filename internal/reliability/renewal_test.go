package reliability

import (
	"math"
	"testing"

	"readduo/internal/drift"
)

func TestSteadyStateRewriteFractionBounds(t *testing.T) {
	r := mustAnalyzer(t, drift.RMetricConfig())
	f := r.SteadyStateRewriteFraction(8)
	if f <= 0 || f >= 1 {
		t.Fatalf("rewrite fraction = %v, want in (0,1)", f)
	}
	// The first-epoch error probability is ~7%, but survival is
	// heavy-tailed: a line whose cells all drew small drift exponents
	// never accumulates an error, so E[scrubs between rewrites] is much
	// larger than 1/first-epoch-hazard and the steady-state fraction
	// lands well below 7% (this is precisely why W=1 R-scrubbing leaves
	// lines unrefreshed long enough to break R-sensing reliability).
	first := 1 - math.Pow(1-drift.RMetricConfig().AvgCellErrorProb(8), 256)
	if f > first {
		t.Errorf("steady-state fraction %v above first-epoch probability %v", f, first)
	}
	if f < 0.003 || f > 0.2 {
		t.Errorf("steady-state fraction %v outside plausible band [0.003, 0.2]", f)
	}
}

func TestSteadyStateRewriteFractionMetricGap(t *testing.T) {
	r := mustAnalyzer(t, drift.RMetricConfig())
	m := mustAnalyzer(t, drift.MMetricConfig())
	fr := r.SteadyStateRewriteFraction(8)
	fm := m.SteadyStateRewriteFraction(640)
	// M-metric scrubbing almost never rewrites — the basis of the paper's
	// claim that W=1 M-scrubbing has negligible write overhead.
	if fm > fr/10 {
		t.Errorf("M rewrite fraction %v not <<R fraction %v", fm, fr)
	}
	if fm > 0.02 {
		t.Errorf("M rewrite fraction %v, want ~negligible", fm)
	}
}

func TestSteadyStateRewriteFractionMonotoneInInterval(t *testing.T) {
	r := mustAnalyzer(t, drift.RMetricConfig())
	// Longer intervals accumulate more errors per visit, so a larger
	// fraction of visits rewrite.
	f8 := r.SteadyStateRewriteFraction(8)
	f64 := r.SteadyStateRewriteFraction(64)
	f640 := r.SteadyStateRewriteFraction(640)
	if !(f8 < f64 && f64 < f640) {
		t.Errorf("fractions not increasing: %v %v %v", f8, f64, f640)
	}
}

func TestSteadyStateRewriteFractionDegenerate(t *testing.T) {
	r := mustAnalyzer(t, drift.RMetricConfig())
	if got := r.SteadyStateRewriteFraction(0); got != 0 {
		t.Errorf("zero interval fraction = %v, want 0", got)
	}
	if got := r.SteadyStateRewriteFraction(-5); got != 0 {
		t.Errorf("negative interval fraction = %v, want 0", got)
	}
}

func TestLERWithHardErrors(t *testing.T) {
	r := mustAnalyzer(t, drift.RMetricConfig())
	// Baseline: BCH-8 at S=8 meets the budget with no hard errors.
	base := r.LERWithHardErrors(8, 0, 8)
	if got := r.LER(8, 8); math.Abs(base-got)/got > 1e-9 {
		t.Errorf("hard=0 LER %v != plain LER %v", base, got)
	}
	// Each stuck cell strictly erodes the margin.
	prev := base
	for h := 1; h <= 8; h++ {
		cur := r.LERWithHardErrors(8, h, 8)
		if cur <= prev {
			t.Errorf("hard=%d LER %v not above hard=%d LER %v", h, cur, h-1, prev)
		}
		prev = cur
	}
	// Exceeding the budget is certain failure.
	if got := r.LERWithHardErrors(8, 9, 8); got != 1 {
		t.Errorf("hard>E LER = %v, want 1", got)
	}
	if got := r.LERWithHardErrors(8, -3, 8); got != base {
		t.Errorf("negative hard clamped LER = %v, want %v", got, base)
	}
}

func TestMaxHardErrors(t *testing.T) {
	r := mustAnalyzer(t, drift.RMetricConfig())
	h, ok := r.MaxHardErrors(8, 8)
	if !ok {
		t.Fatal("BCH-8 at S=8 does not even work with zero hard errors")
	}
	// Table III: E=7 at S=8 is 2.04e-14 < 2.84e-14 (just), E=6 is far
	// over; so exactly 1 stuck cell fits... verify consistency instead of
	// pinning: the returned h must pass and h+1 must fail.
	if r.LERWithHardErrors(8, h, 8) > reliabilityTarget(8) {
		t.Errorf("reported headroom %d does not meet target", h)
	}
	if h < 8 && r.LERWithHardErrors(8, h+1, 8) <= reliabilityTarget(8) {
		t.Errorf("headroom %d underestimates; %d also fits", h, h+1)
	}
	// M-metric at 640 s has enormous margin: most of the budget is spare.
	m := mustAnalyzer(t, drift.MMetricConfig())
	hm, ok := m.MaxHardErrors(8, 640)
	if !ok || hm < 4 {
		t.Errorf("M-metric headroom = %d,%v; want generous", hm, ok)
	}
	// A hopeless policy reports not-ok.
	if _, ok := r.MaxHardErrors(1, 640); ok {
		t.Error("BCH-1 at 640 s reported workable")
	}
}

func reliabilityTarget(s float64) float64 { return TargetLER(s) }

// TestSteadyStateRewriteFractionPinned pins the W=1 rewrite fractions of
// the two scrubbing baselines, Scrubbing (R-metric, S = 8 s) and M-metric
// (S = 640 s), to their exact bits at three temperatures. Each value sums
// survival over up to 4,096 crossing integrals, so a change to the
// quadrature's arithmetic shows here.
func TestSteadyStateRewriteFractionPinned(t *testing.T) {
	for _, tc := range []struct {
		metric drift.Metric
		s      float64
		tempK  float64
		bits   uint64
	}{
		{drift.MetricR, 8, 250, 0x3f730e436377a5d0},
		{drift.MetricR, 8, 300, 0x3f93fad28b946c87},
		{drift.MetricR, 8, 350, 0x3fab8e70f3eca519},
		{drift.MetricM, 640, 250, 0x3ec74b2c5526c3dd},
		{drift.MetricM, 640, 300, 0x3ed368575c83069d},
		{drift.MetricM, 640, 350, 0x3edd95e1455fc433},
	} {
		an := mustAnalyzer(t, drift.MetricConfigAt(tc.metric, tc.tempK))
		got := an.SteadyStateRewriteFraction(tc.s)
		if bits := math.Float64bits(got); bits != tc.bits {
			t.Errorf("%v S=%gs at %gK: fraction %v (%#016x), want %v (%#016x)",
				tc.metric, tc.s, tc.tempK, got, bits, math.Float64frombits(tc.bits), tc.bits)
		}
	}
}

// benchFraction keeps the benchmarked fraction live.
var benchFraction float64

// BenchmarkSteadyStateRewriteFraction measures the cold cost the
// simulator pays per drift config for its two W=1 scrubbing baselines: a
// fresh Analyzer (and so a fresh crossing kernel) per op, then the
// 4,096-integral renewal sum.
func BenchmarkSteadyStateRewriteFraction(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  drift.Config
		s    float64
	}{
		{"R@8s", drift.RMetricConfig(), 8},
		{"M@640s", drift.MMetricConfig(), 640},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				an, err := NewAnalyzer(bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				benchFraction = an.SteadyStateRewriteFraction(bc.s)
			}
		})
	}
}
