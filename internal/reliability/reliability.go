// Package reliability implements ReadDuo's scrub-policy analysis: line error
// rates under a (BCH=E, S, W) efficient-scrubbing policy (Tables III and IV),
// the W-policy interval probabilities (Table V), and the DRAM soft-error
// target the paper matches MLC PCM against.
//
// An (E, S, W) efficient scrubbing attaches a BCH-E code to each memory
// line, scrubs every line every S seconds, and rewrites a line at scrub time
// only if it sees W or more drift errors. A policy is acceptable when three
// probabilities all stay below the DRAM line-error budget: (i) more than E
// errors accumulate within one interval of the write; (ii) fewer than W
// errors by the first scrub but more than E-W during the second interval;
// (iii) fewer than W errors across two scrubs but more than E-W during the
// third interval.
package reliability

import (
	"fmt"
	"math"

	"readduo/internal/dist"
	"readduo/internal/drift"
)

// Line geometry of the paper: a 64-byte line is 512 bits in 256 2-bit cells.
const (
	LineBits     = 512
	CellsPerLine = LineBits / 2
)

// DRAMFITPerMbit is the DRAM soft-error rate the paper targets: 25 failures
// per 10^9 device-hours per 10^6 bits.
const DRAMFITPerMbit = 25

// TargetLERPerSecond returns the per-line-per-second error budget implied by
// the DRAM FIT target for a LineBits-bit line (paper: 3.56e-15).
func TargetLERPerSecond() float64 {
	perBitPerHour := DRAMFITPerMbit / 1e9 / 1e6
	return perBitPerHour * LineBits / 3600
}

// TargetLER returns the allowed line-error probability over an interval of
// `seconds`, i.e. the right-hand column of Tables III/IV.
func TargetLER(seconds float64) float64 {
	return TargetLERPerSecond() * seconds
}

// Analyzer evaluates line error rates for one readout metric.
type Analyzer struct {
	metric drift.Metric
	// kern evaluates every crossing probability the analyzer needs.
	kern  drift.Kernel
	cells int
}

// Option customizes an Analyzer.
type Option func(*Analyzer)

// WithCellsPerLine overrides the number of MLC cells per protected line
// (default CellsPerLine).
func WithCellsPerLine(n int) Option {
	return func(a *Analyzer) { a.cells = n }
}

// NewAnalyzer builds an Analyzer for the given drift configuration.
func NewAnalyzer(cfg drift.Config, opts ...Option) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("reliability: %w", err)
	}
	a := &Analyzer{metric: cfg.Metric, cells: CellsPerLine}
	for _, opt := range opts {
		opt(a)
	}
	if a.cells <= 0 {
		return nil, fmt.Errorf("reliability: cells per line must be positive, got %d", a.cells)
	}
	a.kern = cfg.Kernel()
	return a, nil
}

// Metric returns the readout metric this analyzer models.
func (a *Analyzer) Metric() drift.Metric { return a.metric }

// LER returns the probability that a line written at time 0 holds more than
// e drift errors at age t seconds — the body of Tables III/IV. Cells hold
// uniformly distributed data, so each is an independent Bernoulli trial with
// the level-averaged crossing probability.
func (a *Analyzer) LER(e int, t float64) float64 {
	p := a.kern.AvgCellErrorProb(t)
	return dist.BinomTailGT(a.cells, p, e)
}

// LERWithDisturb extends LER with a read-disturb channel: the line absorbed
// `reads` sensing operations since its last rewrite under per-read disturb
// probability ch.PerRead. Drift and disturb strike a cell independently
// (drift moves the metric up, disturb latches it one level down), so the
// per-cell error probability is the complement-product combination — and
// the line error rate is monotonically non-decreasing in both the disturb
// rate and the read count, the property the physics test sweep pins.
func (a *Analyzer) LERWithDisturb(e int, t float64, ch drift.DisturbChannel, reads int64) float64 {
	q := ch.CellErrorProb(reads)
	if q == 0 {
		// Exact default-off gate: 1-(1-p) rounds, LER does not.
		return a.LER(e, t)
	}
	p := a.kern.AvgCellErrorProb(t)
	combined := 1 - (1-p)*(1-q)
	return dist.BinomTailGT(a.cells, combined, e)
}

// WPolicySecondInterval returns probability (ii) of the policy definition:
// the line sees fewer than w errors during its first interval (so a W-policy
// scrub skips the rewrite) yet more than e-w errors arrive during the second
// interval. Cell categories are disjoint ("first error in interval 1" vs
// "first error in interval 2"), so the joint probability is multinomial.
func (a *Analyzer) WPolicySecondInterval(e, w int, s float64) (float64, error) {
	pA := a.kern.AvgCellErrorProb(s)
	pB := a.kern.AvgErrorProbBetween(s, 2*s)
	return dist.MultinomJointTail(a.cells, pA, pB, w, e-w)
}

// WPolicyThirdInterval returns probability (iii): fewer than w errors during
// the first two intervals, more than e-w during the third.
func (a *Analyzer) WPolicyThirdInterval(e, w int, s float64) (float64, error) {
	pA := a.kern.AvgCellErrorProb(2 * s)
	pB := a.kern.AvgErrorProbBetween(2*s, 3*s)
	return dist.MultinomJointTail(a.cells, pA, pB, w, e-w)
}

// Policy is one (E, S, W) efficient-scrubbing configuration.
type Policy struct {
	// E is the BCH correction capability attached to each line.
	E int
	// S is the scrub interval in seconds.
	S float64
	// W is the rewrite threshold: a scrub rewrites the line only when it
	// finds at least W errors. W=0 means unconditional rewrite.
	W int
}

// String implements fmt.Stringer.
func (p Policy) String() string {
	return fmt.Sprintf("(BCH=%d, S=%gs, W=%d)", p.E, p.S, p.W)
}

// Check evaluates the three acceptability probabilities of a policy against
// the DRAM budget and returns them along with the verdict. With W=0 every
// scrub rewrites the line, so conditions (ii)/(iii) are vacuous.
func (a *Analyzer) Check(p Policy) (PolicyReport, error) {
	if p.E < 0 || p.S <= 0 || p.W < 0 {
		return PolicyReport{}, fmt.Errorf("reliability: invalid policy %v", p)
	}
	rep := PolicyReport{Policy: p}
	rep.FirstInterval = a.LER(p.E, p.S)
	rep.TargetFirst = TargetLER(p.S)
	if p.W > 0 {
		var err error
		rep.SecondInterval, err = a.WPolicySecondInterval(p.E, p.W, p.S)
		if err != nil {
			return PolicyReport{}, err
		}
		rep.ThirdInterval, err = a.WPolicyThirdInterval(p.E, p.W, p.S)
		if err != nil {
			return PolicyReport{}, err
		}
		rep.TargetSecond = TargetLER(2 * p.S)
		rep.TargetThird = TargetLER(3 * p.S)
	}
	rep.Meets = rep.FirstInterval <= rep.TargetFirst &&
		(p.W == 0 || (rep.SecondInterval <= rep.TargetSecond && rep.ThirdInterval <= rep.TargetThird))
	return rep, nil
}

// PolicyReport carries the probabilities behind a policy verdict.
type PolicyReport struct {
	Policy         Policy
	FirstInterval  float64 // probability (i)
	SecondInterval float64 // probability (ii), zero when W=0
	ThirdInterval  float64 // probability (iii), zero when W=0
	TargetFirst    float64
	TargetSecond   float64
	TargetThird    float64
	Meets          bool
}

// MinECCForTarget returns the smallest BCH strength e <= maxE whose
// first-interval LER at interval s meets the DRAM budget, and whether one
// exists.
func (a *Analyzer) MinECCForTarget(s float64, maxE int) (int, bool) {
	target := TargetLER(s)
	for e := 0; e <= maxE; e++ {
		if a.LER(e, s) <= target {
			return e, true
		}
	}
	return 0, false
}

// MaxIntervalForTarget returns the largest interval from candidates (sorted
// ascending) at which BCH strength e still meets the budget, and whether any
// does.
func (a *Analyzer) MaxIntervalForTarget(e int, candidates []float64) (float64, bool) {
	best := math.NaN()
	found := false
	for _, s := range candidates {
		if a.LER(e, s) <= TargetLER(s) {
			best = s
			found = true
		}
	}
	return best, found
}

// DetectionWindow returns the largest age from candidates (sorted ascending)
// for which the probability of exceeding detectE errors stays within the
// DRAM budget. ReadDuo-Hybrid uses this with detectE = 2*t+1 = 17: R-sensing
// is trustworthy only while an undetectable (>17-error) pattern is rarer
// than the budget.
func (a *Analyzer) DetectionWindow(detectE int, candidates []float64) (float64, bool) {
	return a.MaxIntervalForTarget(detectE, candidates)
}

// Table is one rendered LER table (Table III or IV): rows are scrub
// intervals, columns are BCH strengths, plus the per-row DRAM target.
type Table struct {
	Metric    drift.Metric
	Intervals []float64
	ECCs      []int
	// Values[i][j] = P[> ECCs[j] errors at age Intervals[i]].
	Values  [][]float64
	Targets []float64
}

// PaperIntervals are the scrub intervals of Tables III/IV: powers of two
// from 4 s to 1024 s, with the 640 s row the design point inserted in order.
func PaperIntervals() []float64 {
	return []float64{4, 8, 16, 32, 64, 128, 256, 512, 640, 1024}
}

// PaperECCs are the BCH strengths tabulated in Tables III/IV.
func PaperECCs() []int {
	return []int{0, 1, 7, 8, 9, 16, 17, 18}
}

// BuildTable evaluates the full LER grid.
func (a *Analyzer) BuildTable(intervals []float64, eccs []int) Table {
	t := Table{
		Metric:    a.metric,
		Intervals: append([]float64(nil), intervals...),
		ECCs:      append([]int(nil), eccs...),
		Values:    make([][]float64, len(intervals)),
		Targets:   make([]float64, len(intervals)),
	}
	for i, s := range intervals {
		row := make([]float64, len(eccs))
		p := a.kern.AvgCellErrorProb(s)
		for j, e := range eccs {
			row[j] = dist.BinomTailGT(a.cells, p, e)
		}
		t.Values[i] = row
		t.Targets[i] = TargetLER(s)
	}
	return t
}
