package drift

import (
	"math"
	"strconv"
	"testing"

	"readduo/internal/dist"
)

// refCrossProbUp is a reference copy of the closure integrand that
// Kernel replaced: it rebuilds the program window and integrates with
// dist.GaussLegendre on every call.
func refCrossProbUp(c Config, level int, t float64) float64 {
	if level < 0 || level >= LevelCount-1 {
		return 0
	}
	lam := 0.0
	if t > c.T0 {
		lam = math.Log10(t / c.T0)
	}
	if lam <= 0 {
		return 0
	}
	lv := c.Levels[level]
	if lv.SigmaAlpha == 0 {
		win, err := c.programWindow(level)
		if err != nil {
			return 0
		}
		return 1 - win.CDF(c.UpperBoundary(level)-lv.MuAlpha*lam)
	}
	win, err := c.programWindow(level)
	if err != nil {
		return 0
	}
	bound := c.UpperBoundary(level)
	lo, hi := win.Bounds()
	nodes := c.QuadNodes
	if nodes <= 0 {
		nodes = defaultQuadNodes
	}
	f := func(x float64) float64 {
		thr := (bound - x) / lam
		return win.PDF(x) * dist.StdNormalSF((thr-lv.MuAlpha)/lv.SigmaAlpha)
	}
	return dist.GaussLegendre(f, lo, hi, nodes)
}

func refCellErrorProb(c Config, level int, t float64) float64 {
	p := refCrossProbUp(c, level, t)
	if p > 1 {
		return 1
	}
	return p
}

func refAvgCellErrorProb(c Config, t float64) float64 {
	var sum float64
	for level := 0; level < LevelCount; level++ {
		sum += refCellErrorProb(c, level, t)
	}
	return sum / LevelCount
}

func refErrorProbBetween(c Config, level int, t1, t2 float64) float64 {
	if t2 <= t1 {
		return 0
	}
	p := refCellErrorProb(c, level, t2) - refCellErrorProb(c, level, t1)
	if p < 0 {
		return 0
	}
	return p
}

func refAvgErrorProbBetween(c Config, t1, t2 float64) float64 {
	var sum float64
	for level := 0; level < LevelCount; level++ {
		sum += refErrorProbBetween(c, level, t1, t2)
	}
	return sum / LevelCount
}

// kernelTestAges are the ages the differential test evaluates: at and
// below T0, just above it, every scrub epoch of the two W=1 designs up to
// one past the renewal horizon (strided past the first 64), and the
// simulator's table ceiling.
func kernelTestAges(t0 float64) []float64 {
	ages := []float64{-1, 0, t0 / 2, t0, math.Nextafter(t0, math.Inf(1)), t0 * (1 + 1e-9), 1.5 * t0, 1e7, math.Inf(1)}
	for _, s := range []float64{8, 640} {
		for n := 1; n <= 4097; n++ {
			if n <= 64 || n%61 == 0 || n >= 4094 {
				ages = append(ages, float64(n)*s)
			}
		}
	}
	return ages
}

// TestKernelMatchesClosureBitForBit checks every Kernel method against
// the reference closure integrand, bit for bit, over both metrics at five
// temperatures, a QuadNodes override, deterministic drift and a config
// whose program window cannot be built.
func TestKernelMatchesClosureBitForBit(t *testing.T) {
	type namedConfig struct {
		name string
		cfg  Config
	}
	var cfgs []namedConfig
	for _, m := range []Metric{MetricR, MetricM} {
		for _, tempK := range []float64{4, 250, 300, 350, 400} {
			name := m.String() + "@" + strconv.FormatFloat(tempK, 'g', -1, 64) + "K"
			cfgs = append(cfgs, namedConfig{name, MetricConfigAt(m, tempK)})
		}
	}
	nodes := RMetricConfig()
	nodes.QuadNodes = 37
	noSpread := MMetricConfig()
	for i := range noSpread.Levels {
		noSpread.Levels[i].SigmaAlpha = 0
	}
	defaultNodes := RMetricConfig()
	defaultNodes.QuadNodes = 0
	badWindow := RMetricConfig()
	badWindow.Levels[1].SigmaLog = 0
	cfgs = append(cfgs,
		namedConfig{"R QuadNodes=37", nodes},
		namedConfig{"M SigmaAlpha=0", noSpread},
		namedConfig{"R QuadNodes=0", defaultNodes},
		namedConfig{"R level-1 SigmaLog=0", badWindow},
	)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, nc := range cfgs {
		c := nc.cfg
		k := c.Kernel()
		ages := kernelTestAges(c.T0)
		prev := ages[0]
		for _, age := range ages {
			if got, want := k.AvgCellErrorProb(age), refAvgCellErrorProb(c, age); !same(got, want) {
				t.Fatalf("%s: AvgCellErrorProb(%v) = %v, closure %v", nc.name, age, got, want)
			}
			if got, want := c.AvgCellErrorProb(age), refAvgCellErrorProb(c, age); !same(got, want) {
				t.Fatalf("%s: Config.AvgCellErrorProb(%v) = %v, closure %v", nc.name, age, got, want)
			}
			for level := -1; level <= LevelCount; level++ {
				if got, want := k.CrossProbUp(level, age), refCrossProbUp(c, level, age); !same(got, want) {
					t.Fatalf("%s: CrossProbUp(%d, %v) = %v, closure %v", nc.name, level, age, got, want)
				}
				if got, want := k.CellErrorProb(level, age), refCellErrorProb(c, level, age); !same(got, want) {
					t.Fatalf("%s: CellErrorProb(%d, %v) = %v, closure %v", nc.name, level, age, got, want)
				}
				if got, want := k.ErrorProbBetween(level, prev, age), refErrorProbBetween(c, level, prev, age); !same(got, want) {
					t.Fatalf("%s: ErrorProbBetween(%d, %v, %v) = %v, closure %v", nc.name, level, prev, age, got, want)
				}
			}
			for _, t1 := range []float64{prev, age / 2, age} {
				if got, want := k.AvgErrorProbBetween(t1, age), refAvgErrorProbBetween(c, t1, age); !same(got, want) {
					t.Fatalf("%s: AvgErrorProbBetween(%v, %v) = %v, closure %v", nc.name, t1, age, got, want)
				}
			}
			prev = age
		}
	}
}

// TestKernelBuildAllocatesOnce keeps a kernel build, and so a one-shot
// Config.AvgCellErrorProb, to one heap allocation: the node tables.
func TestKernelBuildAllocatesOnce(t *testing.T) {
	c := RMetricConfig()
	c.AvgCellErrorProb(8) // warm the shared Gauss-Legendre rule
	if n := testing.AllocsPerRun(20, func() { c.AvgCellErrorProb(8) }); n != 1 {
		t.Errorf("one-shot AvgCellErrorProb allocates %v times, want 1", n)
	}
}
