package reliability

import "readduo/internal/dist"

// Hard-error headroom analysis for §III-E: a stuck cell that is not
// repaired by a pointer scheme (package ecp) flips one bit on every read
// and therefore permanently consumes one unit of the line's BCH budget.
// These helpers quantify how many such cells an (E, S) policy tolerates
// before drift reliability falls below the DRAM target — the analytical
// form of the paper's "we may increase the error correction capability of
// the current ECC chip".

// LERWithHardErrors returns the probability that a line carrying `hard`
// permanently stuck cells exceeds its remaining drift-error budget at age
// t: P[drift errors > e - hard]. With hard >= e the line is already at or
// past its correction capability and the probability is 1 at any age with
// nonzero drift exposure.
func (a *Analyzer) LERWithHardErrors(e, hard int, t float64) float64 {
	if hard < 0 {
		hard = 0
	}
	if hard > e {
		return 1
	}
	// Stuck cells no longer accumulate drift errors; the remaining
	// cells-hard cells draw from the usual crossing probability.
	p := a.kern.AvgCellErrorProb(t)
	n := a.cells - hard
	if n <= 0 {
		return 1
	}
	return dist.BinomTailGT(n, p, e-hard)
}

// MaxHardErrors returns the largest number of unrepaired stuck cells under
// which BCH strength e still meets the DRAM budget at scrub interval s,
// and whether even zero works.
func (a *Analyzer) MaxHardErrors(e int, s float64) (int, bool) {
	target := TargetLER(s)
	if a.LERWithHardErrors(e, 0, s) > target {
		return 0, false
	}
	best := 0
	for h := 1; h <= e; h++ {
		if a.LERWithHardErrors(e, h, s) > target {
			break
		}
		best = h
	}
	return best, true
}
