// Package drift implements the resistance-drift models of ReadDuo (DSN'16):
// the R-metric (current-sensing, Eq. 1 / Table I) and the M-metric
// (voltage-sensing, Eq. 2 / Table II) of a 2-bit MLC PCM cell.
//
// Both metrics share the same empirical form
//
//	V(t) = V0 * (t/t0)^alpha
//
// where log10 V0 is normally distributed per programmed level (truncated by
// the program-and-verify window) and alpha is normally distributed with
// sigma_alpha = 0.4 * mu_alpha. A drift error occurs when the metric value
// crosses the read reference that separates adjacent states.
//
// The package provides both the analytical crossing probabilities used by
// the reliability tables (package reliability) and the sampling primitives
// used by the Monte-Carlo cell simulator (package cell).
package drift

import (
	"fmt"
	"math"
	"math/rand"

	"readduo/internal/dist"
)

// Metric identifies which cell readout metric a configuration describes.
type Metric int

// The two readout metrics from the paper.
const (
	MetricR Metric = iota + 1 // current sensing of low-field resistance
	MetricM                   // voltage sensing under current bias
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case MetricR:
		return "R-metric"
	case MetricM:
		return "M-metric"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// LevelCount is the number of states of a 2-bit MLC cell.
const LevelCount = 4

// grayData maps storage level -> 2-bit data pattern (Table I). Adjacent
// levels differ in exactly one bit, so a single-level drift corrupts a
// single bit of the line.
var grayData = [LevelCount]uint8{0b01, 0b11, 0b10, 0b00}

// Level holds the distribution parameters of one storage level.
type Level struct {
	// Data is the 2-bit pattern stored at this level (Gray coded).
	Data uint8
	// MuLog and SigmaLog parameterize log10 of the initial metric value:
	// log10 V0 ~ N(MuLog, SigmaLog^2), truncated by program-and-verify.
	MuLog    float64
	SigmaLog float64
	// MuAlpha and SigmaAlpha parameterize the drift exponent:
	// alpha ~ N(MuAlpha, SigmaAlpha^2).
	MuAlpha    float64
	SigmaAlpha float64
}

// Config describes one readout metric for a 4-level cell.
type Config struct {
	Metric Metric
	Levels [LevelCount]Level

	// ProgramZ is the half-width, in units of SigmaLog, of the
	// program-and-verify acceptance window (paper: 2.746).
	ProgramZ float64
	// BoundaryZ is the distance, in units of SigmaLog, from MuLog to the
	// state boundary (paper: 3.0, leaving a ~0.25 sigma guard band).
	BoundaryZ float64
	// T0 is the drift reference time in seconds (paper: 1 s).
	T0 float64
	// QuadNodes is the Gauss-Legendre node count for crossing-probability
	// integrals. Zero selects the default (192).
	QuadNodes int
}

const defaultQuadNodes = 192

// RMetricConfig returns the Table I configuration: levels at
// log10 R = 3,4,5,6 with sigma = 1/6 and drift exponents
// 0.001, 0.02, 0.06, 0.10 (sigma_alpha = 0.4 mu_alpha).
func RMetricConfig() Config {
	return metricConfig(MetricR, 3, [LevelCount]float64{0.001, 0.02, 0.06, 0.10})
}

// MMetricConfig returns the Table II configuration. The M-metric value is
// four orders of magnitude below the R-metric (mu_M = mu_R - 4) and its
// drift exponent is 1/7 of the R-metric's, per Papandreou et al. as adopted
// by the paper.
func MMetricConfig() Config {
	r := RMetricConfig()
	var alphas [LevelCount]float64
	for i, lv := range r.Levels {
		alphas[i] = lv.MuAlpha / 7
	}
	return metricConfig(MetricM, -1, alphas)
}

func metricConfig(m Metric, mu0 float64, alphas [LevelCount]float64) Config {
	const sigma = 1.0 / 6.0
	c := Config{
		Metric:    m,
		ProgramZ:  2.746,
		BoundaryZ: 3.0,
		T0:        1,
		QuadNodes: defaultQuadNodes,
	}
	for i := 0; i < LevelCount; i++ {
		c.Levels[i] = Level{
			Data:       grayData[i],
			MuLog:      mu0 + float64(i),
			SigmaLog:   sigma,
			MuAlpha:    alphas[i],
			SigmaAlpha: 0.4 * alphas[i],
		}
	}
	return c
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.ProgramZ <= 0 || c.BoundaryZ <= 0 || c.ProgramZ >= c.BoundaryZ {
		return fmt.Errorf("drift: program window z=%v must be positive and inside boundary z=%v",
			c.ProgramZ, c.BoundaryZ)
	}
	if c.T0 <= 0 {
		return fmt.Errorf("drift: reference time t0=%v must be positive", c.T0)
	}
	for i, lv := range c.Levels {
		if lv.SigmaLog <= 0 {
			return fmt.Errorf("drift: level %d sigma_log=%v must be positive", i, lv.SigmaLog)
		}
		if lv.SigmaAlpha < 0 || lv.MuAlpha < 0 {
			return fmt.Errorf("drift: level %d alpha parameters must be nonnegative", i)
		}
		if i > 0 && lv.MuLog <= c.Levels[i-1].MuLog {
			return fmt.Errorf("drift: level means must be strictly increasing (level %d)", i)
		}
	}
	return nil
}

// DataForLevel returns the 2-bit Gray pattern stored at level.
func (c Config) DataForLevel(level int) uint8 {
	return c.Levels[level].Data
}

// LevelForData returns the storage level holding the 2-bit pattern data,
// or -1 if the pattern is not used.
func (c Config) LevelForData(data uint8) int {
	for i, lv := range c.Levels {
		if lv.Data == data&0b11 {
			return i
		}
	}
	return -1
}

// UpperBoundary returns the log10 read reference above level (the boundary
// toward level+1). Crossing it makes the cell read as the next state.
// It returns +Inf for the top level, which has no state above it.
func (c Config) UpperBoundary(level int) float64 {
	if level >= LevelCount-1 {
		return math.Inf(1)
	}
	// Midpoint between this level's +BoundaryZ edge and the next level's
	// -BoundaryZ edge. With the paper's parameters (sigma=1/6, spacing 1.0)
	// the two coincide at mu + 0.5.
	hi := c.Levels[level].MuLog + c.BoundaryZ*c.Levels[level].SigmaLog
	lo := c.Levels[level+1].MuLog - c.BoundaryZ*c.Levels[level+1].SigmaLog
	return (hi + lo) / 2
}

// LowerBoundary returns the log10 read reference below level, or -Inf for
// the bottom level.
func (c Config) LowerBoundary(level int) float64 {
	if level <= 0 {
		return math.Inf(-1)
	}
	return c.UpperBoundary(level - 1)
}

// programWindow returns the truncated-normal distribution of log10 V0 for a
// freshly programmed cell at level.
func (c Config) programWindow(level int) (dist.TruncNormal, error) {
	lv := c.Levels[level]
	half := c.ProgramZ * lv.SigmaLog
	return dist.NewTruncNormal(lv.MuLog, lv.SigmaLog, lv.MuLog-half, lv.MuLog+half)
}

// AvgCellErrorProb returns the per-cell drift-error probability at time t
// averaged over the four levels, assuming uniformly distributed data. It
// builds c's Kernel for one age; callers that evaluate many ages keep the
// Kernel instead.
func (c Config) AvgCellErrorProb(t float64) float64 {
	k := c.Kernel()
	return k.AvgCellErrorProb(t)
}

// SampleInitial draws log10 of a freshly programmed metric value for level,
// simulating the program-and-verify acceptance window.
func (c Config) SampleInitial(level int, rng *rand.Rand) float64 {
	win, err := c.programWindow(level)
	if err != nil {
		// Validate() rejects such configs; fall back to the mean so a
		// mis-constructed config fails loudly in tests, not with a panic.
		return c.Levels[level].MuLog
	}
	return win.Sample(rng)
}

// SampleAlpha draws a per-cell drift exponent for level. The Gaussian model
// sigma_alpha = 0.4 mu_alpha puts ~0.6% of its mass below zero; since
// structural relaxation cannot reduce the metric, negative draws are clamped
// to zero ("cells that do not drift"). Up-crossing probabilities are
// unaffected because every boundary threshold is positive.
func (c Config) SampleAlpha(level int, rng *rand.Rand) float64 {
	lv := c.Levels[level]
	a := lv.MuAlpha + lv.SigmaAlpha*rng.NormFloat64()
	if a < 0 {
		return 0
	}
	return a
}

// LogValueAt evolves a cell: given log10 V0 at programming time and the
// cell's drift exponent, it returns log10 V(t) after t seconds.
func (c Config) LogValueAt(logV0, alpha, t float64) float64 {
	return logV0 + alpha*lambda(c.T0, t)
}

// SenseLevel returns the state a readout circuit reports for a cell whose
// metric currently has log10 value logV: the number of read references
// lying below logV.
func (c Config) SenseLevel(logV float64) int {
	level := 0
	for ; level < LevelCount-1; level++ {
		if logV <= c.UpperBoundary(level) {
			break
		}
	}
	return level
}
