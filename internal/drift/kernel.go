package drift

import (
	"math"

	"readduo/internal/dist"
)

// Kernel is the crossing-probability model of one Config, built once and
// evaluated at many ages.
//
// The probability that a cell programmed to a level has crossed its upper
// read reference by age t integrates, over the truncated-normal initial
// position X, the Gaussian tail P[alpha > (boundary - X) / lam] with
// lam = log10(t/t0). The Gauss-Legendre sum that evaluates it is
//
//	half * sum_i w_i * (pdf(x_i) * SF(((bound - x_i)/lam - mu_alpha) / sigma_alpha))
//
// and only lam depends on the age. A Kernel computes everything else once
// per level: the node positions x_i = mid + half*xi_i, the window densities
// pdf(x_i), the distances bound - x_i and the weights w_i. An age then
// costs one log10 and one StdNormalSF per node. The arithmetic left per
// node is the integrand's own, with the same association and summation
// order, so every probability is bit-identical to integrating the closure
// with dist.GaussLegendre.
//
// A Kernel is immutable once built and safe for concurrent use. Keep one
// next to whatever evaluates many ages of the same Config.
type Kernel struct {
	t0 float64
	// weights are the shared Gauss-Legendre weights; read only.
	weights []float64
	levels  [LevelCount - 1]levelKernel
}

// levelKernel is the age-independent part of one level's crossing
// probability. The top level has none: it never up-crosses.
type levelKernel struct {
	// ok is false when the level's program window cannot be built (a
	// config Validate rejects); the level then never crosses.
	ok         bool
	win        dist.TruncNormal
	bound      float64 // UpperBoundary(level)
	muAlpha    float64
	sigmaAlpha float64
	half       float64 // half-width of the program window
	// pdf[i] = win.PDF(x_i) and gap[i] = bound - x_i. Both are nil when
	// sigmaAlpha == 0, where the crossing probability is closed form.
	pdf, gap []float64
}

// Kernel builds c's crossing kernel. Its node tables share one backing
// allocation.
func (c Config) Kernel() Kernel {
	nodes := c.QuadNodes
	if nodes <= 0 {
		nodes = defaultQuadNodes
	}
	xs, weights := dist.GaussLegendreRule(nodes)
	k := Kernel{t0: c.T0, weights: weights}
	buf := make([]float64, 2*nodes*len(k.levels))
	for level := range k.levels {
		win, err := c.programWindow(level)
		if err != nil {
			continue
		}
		lv := c.Levels[level]
		lk := &k.levels[level]
		*lk = levelKernel{
			ok:         true,
			win:        win,
			bound:      c.UpperBoundary(level),
			muAlpha:    lv.MuAlpha,
			sigmaAlpha: lv.SigmaAlpha,
		}
		if lv.SigmaAlpha == 0 {
			continue
		}
		// The nodes are mapped onto the window exactly as
		// dist.GaussLegendre maps them.
		lo, hi := win.Bounds()
		mid := (lo + hi) / 2
		lk.half = (hi - lo) / 2
		lk.pdf, lk.gap = buf[:nodes:nodes], buf[nodes:2*nodes:2*nodes]
		buf = buf[2*nodes:]
		for i, xi := range xs {
			x := mid + lk.half*xi
			lk.pdf[i] = win.PDF(x)
			lk.gap[i] = lk.bound - x
		}
	}
	return k
}

// lambda converts elapsed time to the drift multiplier log10(t/t0).
func lambda(t0, t float64) float64 {
	if t <= t0 {
		return 0
	}
	return math.Log10(t / t0)
}

// crossProb is CrossProbUp at drift multiplier lam.
func (k *Kernel) crossProb(level int, lam float64) float64 {
	if level < 0 || level >= LevelCount-1 || lam <= 0 {
		return 0
	}
	lk := &k.levels[level]
	if !lk.ok {
		return 0
	}
	if lk.sigmaAlpha == 0 {
		// Deterministic drift: crossing iff X + mu_alpha*lam > boundary.
		return 1 - lk.win.CDF(lk.bound-lk.muAlpha*lam)
	}
	gap := lk.gap
	pdf, w := lk.pdf[:len(gap)], k.weights[:len(gap)]
	var sum float64
	for i, g := range gap {
		thr := g / lam
		sum += w[i] * (pdf[i] * dist.StdNormalSF((thr-lk.muAlpha)/lk.sigmaAlpha))
	}
	return sum * lk.half
}

// cellErrorProb is CellErrorProb at drift multiplier lam.
func (k *Kernel) cellErrorProb(level int, lam float64) float64 {
	p := k.crossProb(level, lam)
	if p > 1 {
		return 1
	}
	return p
}

// CrossProbUp returns the probability that a cell programmed to level at
// time 0 has drifted above its upper read reference by time t (seconds).
func (k *Kernel) CrossProbUp(level int, t float64) float64 {
	return k.crossProb(level, lambda(k.t0, t))
}

// CellErrorProb returns the probability that a cell programmed to level
// reads out as a different state at time t.
//
// Resistance drift is structural relaxation and only ever increases the
// metric (the drift exponent is clamped at zero, see SampleAlpha), so a
// drift error is exactly an up-crossing — matching the paper's error model
// ("a cell in '01' state drifts above the resistance of Ref3").
func (k *Kernel) CellErrorProb(level int, t float64) float64 {
	return k.cellErrorProb(level, lambda(k.t0, t))
}

// AvgCellErrorProb returns the per-cell drift-error probability at time t
// averaged over the four levels, assuming uniformly distributed data (the
// assumption behind the paper's Tables III/IV).
func (k *Kernel) AvgCellErrorProb(t float64) float64 {
	lam := lambda(k.t0, t)
	var sum float64
	for level := 0; level < LevelCount; level++ {
		sum += k.cellErrorProb(level, lam)
	}
	return sum / LevelCount
}

// ErrorProbBetween returns the probability that a cell programmed to level
// at time 0 first drifts into error during the window (t1, t2]. Drift paths
// are monotone for a fixed cell (alpha is per-cell constant), so this is the
// difference of the cumulative crossing probabilities.
func (k *Kernel) ErrorProbBetween(level int, t1, t2 float64) float64 {
	if t2 <= t1 {
		return 0
	}
	return k.errorProbBetween(level, lambda(k.t0, t1), lambda(k.t0, t2))
}

func (k *Kernel) errorProbBetween(level int, lam1, lam2 float64) float64 {
	p := k.cellErrorProb(level, lam2) - k.cellErrorProb(level, lam1)
	if p < 0 {
		return 0
	}
	return p
}

// AvgErrorProbBetween averages ErrorProbBetween over uniformly distributed
// levels.
func (k *Kernel) AvgErrorProbBetween(t1, t2 float64) float64 {
	if t2 <= t1 {
		return 0
	}
	lam1, lam2 := lambda(k.t0, t1), lambda(k.t0, t2)
	var sum float64
	for level := 0; level < LevelCount; level++ {
		sum += k.errorProbBetween(level, lam1, lam2)
	}
	return sum / LevelCount
}
