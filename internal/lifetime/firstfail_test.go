package lifetime

import (
	"math"
	"testing"
)

// minQuantile returns the q-quantile of the first-failure time — the
// minimum of cfg.Cells iid lognormal lifetimes. With per-cell CDF
// F(x) = Phi(ln(x*wear/median)/sigma), the minimum's CDF is
// 1-(1-F(x))^n, so its q-quantile is F^{-1}(1-(1-q)^{1/n}).
func minQuantile(cfg MCConfig, q float64) float64 {
	pq := 1 - math.Pow(1-q, 1/float64(cfg.Cells))
	z := math.Sqrt2 * math.Erfinv(2*pq-1)
	return cfg.MedianEndurance * math.Exp(cfg.Sigma*z) / cfg.WearRate
}

// TestFirstFailOrderStatistic pins FirstFailSeconds to its closed-form
// sampling distribution. The aggregate quantiles (median, p01, mean) are
// covered by TestMCMatchesLognormalTheory; the first failure is
// the one statistic those checks cannot reach — it is an extreme order
// statistic, four sigma into the per-cell tail for this population size —
// and it is also the quantity the hard-error analysis actually consumes
// (the horizon at which ECP must take over). Each Monte-Carlo run yields
// one draw of min(n lifetimes); across independent seeds those draws must
// (a) all land inside the distribution's central 1-2e-4 bracket and
// (b) reproduce the min-CDF at interior quantiles to a z=4 binomial bound.
func TestFirstFailOrderStatistic(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo differential; run without -short")
	}
	cfg := MCConfig{
		Cells:           20_000,
		MedianEndurance: 1e8,
		Sigma:           0.25,
		WearRate:        1e-3,
		Shards:          8,
		Workers:         2,
	}
	const (
		runs = 40
		z    = 4.0
	)
	mins := make([]float64, runs)
	for i := range mins {
		cfg.Seed = int64(1000 + i)
		res, err := SimulateMC(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", cfg.Seed, err)
		}
		mins[i] = res.FirstFailSeconds
	}

	// Every draw inside the [1e-4, 1-1e-4] bracket of the min
	// distribution: ~0.8% chance of any excursion across all 40 runs,
	// frozen by the fixed seeds.
	lo, hi := minQuantile(cfg, 1e-4), minQuantile(cfg, 1-1e-4)
	for i, m := range mins {
		if m < lo || m > hi {
			t.Errorf("seed %d: FirstFail %.4g s outside closed-form bracket [%.4g, %.4g]",
				1000+i, m, lo, hi)
		}
	}

	// The empirical CDF of the 40 minima must track the closed-form
	// min-CDF at interior quantiles (binomial CI + continuity).
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		x := minQuantile(cfg, q)
		below := 0
		for _, m := range mins {
			if m <= x {
				below++
			}
		}
		emp := float64(below) / runs
		bound := z*math.Sqrt(q*(1-q)/runs) + 0.5/runs
		if diff := math.Abs(emp - q); diff > bound {
			t.Errorf("min-CDF at q=%.2f: empirical %.3f (|diff| %.3f > bound %.3f)",
				q, emp, diff, bound)
		}
	}
}
