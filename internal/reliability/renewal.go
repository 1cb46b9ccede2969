package reliability

// Renewal analysis of W=1 scrubbing: a line is rewritten at the first scrub
// that finds at least one drift error, which resets its drift clock. The
// fraction of scrub visits that rewrite — needed by the simulator's scrub
// bandwidth and energy model — is 1/E[N] where N is the number of scrubs
// until the first error.

// maxRenewalEpochs bounds the survival sum; past it a geometric tail is
// added in closed form. The tail assumes the per-scrub hazard stays at its
// value at the horizon, but drift keeps slowing, so the true survival
// decays more slowly and the tail understates E[N]. For the Scrubbing
// baseline (R-metric, S = 8 s) survival at the horizon is 2.5e-4 and a
// 16x longer horizon moves the fraction by 0.4%. For the M-metric
// baseline (S = 640 s) survival at the horizon is still 0.92: its fraction
// is mostly tail and reads 4.63e-6 here, against 1.35e-6 with a horizon
// of 16,384 and 3.92e-7 with 65,536, so it overstates the M-metric scrub
// rewrite rate.
const maxRenewalEpochs = 4096

// SteadyStateRewriteFraction returns the long-run fraction of W=1 scrub
// visits that find >= 1 error (and therefore rewrite the line), for scrub
// interval s seconds, assuming no intervening demand writes. Demand writes
// only reset the clock more often, so this is an upper bound on the scrub
// rewrite rate of busy lines and exact for idle ones.
func (a *Analyzer) SteadyStateRewriteFraction(s float64) float64 {
	if s <= 0 {
		return 0
	}
	// E[N] = sum_{n>=0} P(N > n), with P(N > n) = P(zero errors at age
	// n*s) = (1 - p(n*s))^cells: drift paths are monotone, so zero errors
	// now implies zero errors at every earlier scrub.
	expN := 0.0
	var g float64
	for n := 0; n < maxRenewalEpochs; n++ {
		g = a.survivalAt(float64(n) * s)
		expN += g
		if g < 1e-12 {
			return 1 / expN
		}
	}
	// Geometric tail: beyond the horizon treat the per-epoch hazard as
	// constant at its final value.
	gNext := a.survivalAt(float64(maxRenewalEpochs) * s)
	if g > 0 && gNext < g {
		ratio := gNext / g
		expN += g * ratio / (1 - ratio)
	}
	return 1 / expN
}

// survivalAt is the probability a line has zero drift errors at age t.
func (a *Analyzer) survivalAt(t float64) float64 {
	if t <= 0 {
		return 1
	}
	p := a.kern.AvgCellErrorProb(t)
	if p >= 1 {
		return 0
	}
	// (1-p)^cells
	out := 1.0
	base := 1 - p
	for n := a.cells; n > 0; n >>= 1 {
		if n&1 == 1 {
			out *= base
		}
		base *= base
	}
	return out
}
