package cell

import (
	"math"
	"math/rand"
	"testing"

	"readduo/internal/bch"
	"readduo/internal/drift"
	"readduo/internal/reliability"
)

// TestEmpiricalLERMatchesAnalytic is the cross-tier validation: the line
// error rates that Tables III/IV compute analytically must emerge from the
// Monte-Carlo cell population. We compare the per-line drift-error count
// distribution at a moderate age, where both tails are measurable.
func TestEmpiricalLERMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo cross-validation")
	}
	code, err := bch.New(10, 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12345))

	const (
		lines = 4000
		age   = 640.0
	)
	histogram := map[int]int{}
	payload := make([]byte, 64)
	for i := 0; i < lines; i++ {
		rng.Read(payload)
		l, err := NewLine(drift.RMetricConfig(), drift.MMetricConfig(), code)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Write(payload, 0, rng); err != nil {
			t.Fatal(err)
		}
		histogram[l.DriftErrorCount(ReadR, age)]++
	}

	// Empirical tail P[>E] vs the analytic binomial for E = 0..4.
	// Note the analytic model covers the 256 data cells; the simulated
	// line also exposes its 40 parity cells, so compare against a
	// 296-cell analyzer.
	an296, err := reliability.NewAnalyzer(drift.RMetricConfig(), reliability.WithCellsPerLine(296))
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e <= 4; e++ {
		var count int
		for errs, n := range histogram {
			if errs > e {
				count += n
			}
		}
		emp := float64(count) / lines
		want := an296.LER(e, age)
		sigma := math.Sqrt(want * (1 - want) / lines)
		if math.Abs(emp-want) > 5*sigma+0.004 {
			t.Errorf("P[>%d errors] at %gs: empirical %.4f vs analytic %.4f", e, age, emp, want)
		}
	}
}

// TestEmpiricalMMetricSuperiority confirms the cross-metric claim on the
// same physical lines: under M-sensing the same drifted lines read clean.
func TestEmpiricalMMetricSuperiority(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo cross-validation")
	}
	code, err := bch.New(10, 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(777))
	payload := make([]byte, 64)
	var rErrs, mErrs int
	const lines = 1500
	for i := 0; i < lines; i++ {
		rng.Read(payload)
		l, err := NewLine(drift.RMetricConfig(), drift.MMetricConfig(), code)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Write(payload, 0, rng); err != nil {
			t.Fatal(err)
		}
		rErrs += l.DriftErrorCount(ReadR, 640)
		mErrs += l.DriftErrorCount(ReadM, 640)
	}
	if rErrs == 0 {
		t.Fatal("no R-sensing drift errors at 640 s across 1500 lines")
	}
	if mErrs > rErrs/200 {
		t.Errorf("M-sensing errors %d not <<0.5%% of R-sensing errors %d", mErrs, rErrs)
	}
}
