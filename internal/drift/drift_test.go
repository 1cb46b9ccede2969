package drift

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigsValidate(t *testing.T) {
	for _, c := range []Config{RMetricConfig(), MMetricConfig()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%v config invalid: %v", c.Metric, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"program window outside boundary", func(c *Config) { c.ProgramZ = 3.5 }},
		{"zero t0", func(c *Config) { c.T0 = 0 }},
		{"zero sigma", func(c *Config) { c.Levels[1].SigmaLog = 0 }},
		{"negative alpha", func(c *Config) { c.Levels[2].MuAlpha = -0.1 }},
		{"non-increasing means", func(c *Config) { c.Levels[3].MuLog = c.Levels[2].MuLog }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := RMetricConfig()
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("Validate accepted a bad config")
			}
		})
	}
}

func TestTableIParameters(t *testing.T) {
	c := RMetricConfig()
	wantMu := []float64{3, 4, 5, 6}
	wantAlpha := []float64{0.001, 0.02, 0.06, 0.10}
	wantData := []uint8{0b01, 0b11, 0b10, 0b00}
	for i, lv := range c.Levels {
		if lv.MuLog != wantMu[i] {
			t.Errorf("level %d mu = %v, want %v", i, lv.MuLog, wantMu[i])
		}
		if lv.MuAlpha != wantAlpha[i] {
			t.Errorf("level %d mu_alpha = %v, want %v", i, lv.MuAlpha, wantAlpha[i])
		}
		if lv.SigmaAlpha != 0.4*wantAlpha[i] {
			t.Errorf("level %d sigma_alpha = %v, want 0.4*mu_alpha", i, lv.SigmaAlpha)
		}
		if lv.Data != wantData[i] {
			t.Errorf("level %d data = %02b, want %02b", i, lv.Data, wantData[i])
		}
		if math.Abs(lv.SigmaLog-1.0/6) > 1e-15 {
			t.Errorf("level %d sigma = %v, want 1/6", i, lv.SigmaLog)
		}
	}
}

func TestTableIIParameters(t *testing.T) {
	m := MMetricConfig()
	r := RMetricConfig()
	for i := range m.Levels {
		if got, want := m.Levels[i].MuLog, r.Levels[i].MuLog-4; got != want {
			t.Errorf("level %d mu_M = %v, want mu_R-4 = %v", i, got, want)
		}
		if got, want := m.Levels[i].MuAlpha, r.Levels[i].MuAlpha/7; math.Abs(got-want) > 1e-15 {
			t.Errorf("level %d alpha_M = %v, want alpha_R/7 = %v", i, got, want)
		}
	}
}

func TestGrayCodeAdjacency(t *testing.T) {
	c := RMetricConfig()
	for i := 0; i < LevelCount-1; i++ {
		x := c.DataForLevel(i) ^ c.DataForLevel(i+1)
		// Exactly one bit differs between adjacent levels.
		if x != 1 && x != 2 {
			t.Errorf("levels %d and %d differ in %02b, want a single bit", i, i+1, x)
		}
	}
}

func TestLevelDataRoundTrip(t *testing.T) {
	c := RMetricConfig()
	for level := 0; level < LevelCount; level++ {
		if got := c.LevelForData(c.DataForLevel(level)); got != level {
			t.Errorf("round trip level %d -> %d", level, got)
		}
	}
	// All four 2-bit patterns are in use.
	for d := uint8(0); d < 4; d++ {
		if c.LevelForData(d) < 0 {
			t.Errorf("pattern %02b unmapped", d)
		}
	}
}

func TestBoundariesAtHalfDecades(t *testing.T) {
	c := RMetricConfig()
	want := []float64{3.5, 4.5, 5.5}
	for i, w := range want {
		if got := c.UpperBoundary(i); math.Abs(got-w) > 1e-12 {
			t.Errorf("UpperBoundary(%d) = %v, want %v", i, got, w)
		}
	}
	if !math.IsInf(c.UpperBoundary(3), 1) {
		t.Error("top level should have +Inf upper boundary")
	}
	if !math.IsInf(c.LowerBoundary(0), -1) {
		t.Error("bottom level should have -Inf lower boundary")
	}
	if got := c.LowerBoundary(2); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("LowerBoundary(2) = %v, want 4.5", got)
	}
}

// TestCrossProbMatchesTableIII checks the analytical model against the
// values the paper reports in Table III for E=0 and E=1 (converted back to
// per-cell probabilities via the binomial head), the most numerically
// robust entries. Agreement within 10% validates the whole drift stack.
func TestCrossProbMatchesTableIII(t *testing.T) {
	c := RMetricConfig()
	tests := []struct {
		s     float64
		wantP float64 // per-cell from paper E=0 row: p = 1-(1-LER)^(1/256)
	}{
		{4, 4.833e-05},  // LER 1.23e-2
		{8, 2.873e-04},  // LER 7.09e-2
		{16, 6.946e-04}, // LER 1.63e-1
		{32, 1.288e-03}, // LER 2.81e-1
	}
	for _, tt := range tests {
		got := c.AvgCellErrorProb(tt.s)
		if math.Abs(got-tt.wantP)/tt.wantP > 0.10 {
			t.Errorf("AvgCellErrorProb(%vs) = %.4e, paper-derived %.4e (>10%% off)",
				tt.s, got, tt.wantP)
		}
	}
}

func TestCrossProbZeroAtT0(t *testing.T) {
	k := RMetricConfig().Kernel()
	for level := 0; level < LevelCount; level++ {
		if got := k.CellErrorProb(level, 1); got != 0 {
			t.Errorf("error prob at t0 for level %d = %v, want 0", level, got)
		}
		if got := k.CellErrorProb(level, 0.5); got != 0 {
			t.Errorf("error prob before t0 for level %d = %v, want 0", level, got)
		}
	}
}

func TestCrossProbMonotoneInTime(t *testing.T) {
	k := RMetricConfig().Kernel()
	for level := 0; level < LevelCount-1; level++ {
		prev := -1.0
		for _, s := range []float64{2, 4, 8, 64, 640, 1e4, 1e6} {
			cur := k.CrossProbUp(level, s)
			if cur < prev-1e-15 {
				t.Errorf("level %d: crossing prob decreased at t=%v", level, s)
			}
			prev = cur
		}
	}
}

func TestCrossProbOrderedByAlpha(t *testing.T) {
	// Levels with larger drift exponents must have larger crossing
	// probability at equal time (levels 0..2; level 3 has no boundary).
	k := RMetricConfig().Kernel()
	at := 64.0
	p0, p1, p2 := k.CrossProbUp(0, at), k.CrossProbUp(1, at), k.CrossProbUp(2, at)
	if !(p0 <= p1 && p1 <= p2) {
		t.Errorf("crossing probs not ordered: %v %v %v", p0, p1, p2)
	}
	if k.CrossProbUp(3, at) != 0 {
		t.Error("top level must never up-cross")
	}
}

func TestMMetricFarMoreReliable(t *testing.T) {
	r, m := RMetricConfig(), MMetricConfig()
	// At 640 s the paper relies on M-sensing being essentially error-free
	// while R-sensing has accumulated many errors.
	pr, pm := r.AvgCellErrorProb(640), m.AvgCellErrorProb(640)
	if pm >= pr/1e3 {
		t.Errorf("M-metric p=%v not >>1000x more reliable than R-metric p=%v", pm, pr)
	}
	// Table IV's implication: with BCH-8, M-sensing meets the DRAM target
	// at S=640 — the chance of >8 errors among 256 cells must be far below
	// 2.28e-12 (the 640 s line-error budget).
	if tail := binTail256(pm, 8); tail > 1e-14 {
		t.Errorf("M-metric P[>8 errors] at 640s = %v, want << 2.28e-12", tail)
	}
}

// binTail256 returns P[Bin(256, p) > e] via the PMF recurrence (adequate for
// the magnitudes exercised here).
func binTail256(p float64, e int) float64 {
	pmf := math.Pow(1-p, 256)
	var tail float64
	for k := 0; k <= e+40 && k < 256; k++ {
		if k > e {
			tail += pmf
		}
		pmf *= float64(256-k) / float64(k+1) * p / (1 - p)
	}
	return tail
}

func TestErrorProbBetweenPartitions(t *testing.T) {
	k := RMetricConfig().Kernel()
	total := k.CellErrorProb(2, 1280)
	sum := k.ErrorProbBetween(2, 0, 640) + k.ErrorProbBetween(2, 640, 1280)
	if math.Abs(total-sum)/total > 1e-9 {
		t.Errorf("interval partition: total %v != sum %v", total, sum)
	}
	if got := k.ErrorProbBetween(2, 100, 100); got != 0 {
		t.Errorf("empty interval prob = %v, want 0", got)
	}
	if got := k.ErrorProbBetween(2, 200, 100); got != 0 {
		t.Errorf("reversed interval prob = %v, want 0", got)
	}
}

func TestSenseLevelAtMeans(t *testing.T) {
	c := RMetricConfig()
	for level := 0; level < LevelCount; level++ {
		if got := c.SenseLevel(c.Levels[level].MuLog); got != level {
			t.Errorf("SenseLevel(mu_%d) = %d, want %d", level, got, level)
		}
	}
	if got := c.SenseLevel(2.0); got != 0 {
		t.Errorf("SenseLevel far below = %d, want 0", got)
	}
	if got := c.SenseLevel(9.0); got != 3 {
		t.Errorf("SenseLevel far above = %d, want 3", got)
	}
}

func TestSampleInitialWithinProgramWindow(t *testing.T) {
	c := RMetricConfig()
	rng := rand.New(rand.NewSource(3))
	for level := 0; level < LevelCount; level++ {
		lv := c.Levels[level]
		half := c.ProgramZ * lv.SigmaLog
		for i := 0; i < 2000; i++ {
			x := c.SampleInitial(level, rng)
			if x < lv.MuLog-half || x > lv.MuLog+half {
				t.Fatalf("level %d sample %v outside program window", level, x)
			}
			if got := c.SenseLevel(x); got != level {
				t.Fatalf("fresh cell at level %d sensed as %d (value %v)", level, got, x)
			}
		}
	}
}

// TestMonteCarloAgreesWithAnalytic is the keystone cross-check: simulated
// cells must drift into error at the analytically predicted rate. One deep
// case (level 2 at 64 s, 400k cells) sits beside the grid of every level
// at 8, 64 and 640 s (20k cells each).
func TestMonteCarloAgreesWithAnalytic(t *testing.T) {
	c := RMetricConfig()
	errorRate := func(rng *rand.Rand, level int, at float64, n int) float64 {
		var errs int
		for i := 0; i < n; i++ {
			v0 := c.SampleInitial(level, rng)
			a := c.SampleAlpha(level, rng)
			if c.SenseLevel(c.LogValueAt(v0, a, at)) != level {
				errs++
			}
		}
		return float64(errs) / float64(n)
	}

	const n = 400000
	emp := errorRate(rand.New(rand.NewSource(99)), 2, 64, n)
	k := c.Kernel()
	want := k.CellErrorProb(2, 64)
	// 400k trials at p~4e-3: sigma ~ 1e-4, allow 5 sigma.
	if math.Abs(emp-want) > 5*math.Sqrt(want*(1-want)/n) {
		t.Errorf("Monte-Carlo error rate %v vs analytic %v", emp, want)
	}

	// The grid allows 5 sigma plus 1e-6, so rates too small to sample
	// at 20k cells pass at zero.
	const cells = 20000
	rng := rand.New(rand.NewSource(1))
	for _, at := range []float64{8, 64, 640} {
		for level := 0; level < LevelCount; level++ {
			emp := errorRate(rng, level, at, cells)
			want := k.CellErrorProb(level, at)
			if math.Abs(emp-want) > 5*math.Sqrt(want*(1-want)/cells)+1e-6 {
				t.Errorf("level %d at %gs: Monte-Carlo error rate %v vs analytic %v", level, at, emp, want)
			}
		}
	}
}

func TestLogValueAtProperty(t *testing.T) {
	c := RMetricConfig()
	f := func(v0Raw, aRaw, tRaw float64) bool {
		v0 := 3 + math.Abs(math.Mod(v0Raw, 4))  // log10 value in [3, 7)
		a := math.Abs(math.Mod(aRaw, 0.2))      // drift exponent in [0, 0.2)
		tt := 1 + math.Abs(math.Mod(tRaw, 1e6)) // time in [1, 1e6+1)
		if math.IsNaN(v0) || math.IsNaN(a) || math.IsNaN(tt) {
			return true
		}
		got := c.LogValueAt(v0, a, tt)
		want := v0 + a*math.Log10(tt)
		return almostEqualT(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func almostEqualT(a, b, tol float64) bool {
	d := math.Abs(a - b)
	s := math.Max(math.Abs(a), math.Abs(b))
	if s < 1 {
		return d < tol
	}
	return d/s < tol
}

func TestMetricString(t *testing.T) {
	if MetricR.String() != "R-metric" || MetricM.String() != "M-metric" {
		t.Error("Metric.String mismatch")
	}
	if Metric(0).String() != "Metric(0)" {
		t.Error("unknown metric string mismatch")
	}
}
