package reliability

import (
	"fmt"

	"readduo/internal/dist"
)

// Generalized W-policy chain analysis. Table V checks the first three
// scrub intervals of a W=1 policy by hand — conditions (ii) and (iii).
// Under a W-policy a line can in principle coast through arbitrarily many
// scrubs while accumulating up to W-1 errors per visit unnoticed, so a
// complete safety argument needs the whole chain:
//
//	P[ fewer than W errors at scrubs 1..j-1, more than E-W new errors
//	   arrive during interval j ]
//
// for every j until the terms vanish. ChainReport evaluates that series.
// Drift slows logarithmically, so the per-interval arrival probability
// decays and the series converges quickly; the paper's three-term check is
// the j <= 3 prefix.

// ChainTerm is one link of the W-policy failure chain.
type ChainTerm struct {
	// Interval is j: the failure happens during the j-th interval after
	// the write (1-based; j=1 is condition (i) restricted to W).
	Interval int
	// Probability of this term.
	Probability float64
	// Budget is the DRAM target over j intervals.
	Budget float64
}

// WPolicyChain evaluates the first `maxIntervals` terms of the W-policy
// failure chain for BCH strength e, interval s, threshold w. The j-th term
// treats "survived unnoticed" exactly: every cell that drifted before
// interval j must belong to a cumulative count below w (else the scrub
// would have rewritten), and more than e-w cells drift during interval j.
//
// Cells are iid over the level mixture, so the joint distribution of
// (errors before interval j, errors within interval j) is multinomial with
// the cumulative crossing probabilities.
func (a *Analyzer) WPolicyChain(e, w int, s float64, maxIntervals int) ([]ChainTerm, error) {
	if e < 0 || w < 1 || s <= 0 || maxIntervals < 1 {
		return nil, fmt.Errorf("reliability: invalid chain parameters e=%d w=%d s=%v n=%d",
			e, w, s, maxIntervals)
	}
	terms := make([]ChainTerm, 0, maxIntervals)
	for j := 1; j <= maxIntervals; j++ {
		var p float64
		var err error
		if j == 1 {
			// First interval: nothing to survive; fail if more than e
			// errors arrive before the first scrub (condition (i)).
			p = a.LER(e, s)
		} else {
			pA := a.kern.AvgCellErrorProb(float64(j-1) * s)
			pB := a.kern.AvgErrorProbBetween(float64(j-1)*s, float64(j)*s)
			p, err = dist.MultinomJointTail(a.cells, pA, pB, w, e-w)
			if err != nil {
				return nil, err
			}
		}
		terms = append(terms, ChainTerm{
			Interval:    j,
			Probability: p,
			Budget:      TargetLER(float64(j) * s),
		})
	}
	return terms, nil
}

// ChainSafe reports whether every term of the chain (up to maxIntervals)
// stays within its budget, and the index (1-based) of the first violation
// when not.
func (a *Analyzer) ChainSafe(e, w int, s float64, maxIntervals int) (bool, int, error) {
	terms, err := a.WPolicyChain(e, w, s, maxIntervals)
	if err != nil {
		return false, 0, err
	}
	for _, t := range terms {
		if t.Probability > t.Budget {
			return false, t.Interval, nil
		}
	}
	return true, 0, nil
}
