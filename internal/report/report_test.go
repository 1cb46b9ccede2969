package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"readduo/internal/sim"
	"readduo/internal/trace"
)

// smallMatrix runs a 2x3 matrix straight through the simulator; report
// cannot use campaign.Run, which imports it.
func smallMatrix(t *testing.T) *Matrix {
	t.Helper()
	m := &Matrix{
		Benchmarks: []string{"gcc", "hmmer"},
		Schemes:    []string{"Ideal", "M-metric", "TLC"},
	}
	schemes := []sim.Scheme{sim.Ideal(), sim.MMetric(), sim.TLC()}
	for _, name := range m.Benchmarks {
		b, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		row := make([]*sim.Result, len(schemes))
		for j, s := range schemes {
			cfg := sim.DefaultConfig(b)
			cfg.CPU.InstrBudget = 40_000
			cfg.Seed = 3
			res, err := sim.Run(cfg, s)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, s.Name(), err)
			}
			row[j] = res
		}
		m.Results = append(m.Results, row)
	}
	return m
}

func TestColumns(t *testing.T) {
	m := smallMatrix(t)
	sub, err := m.Columns("TLC", "Ideal")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Schemes) != 2 || sub.Schemes[0] != "TLC" || sub.Schemes[1] != "Ideal" {
		t.Fatalf("columns = %v", sub.Schemes)
	}
	for i := range m.Benchmarks {
		if sub.Results[i][0] != m.Results[i][2] || sub.Results[i][1] != m.Results[i][0] {
			t.Errorf("row %d picked the wrong results", i)
		}
	}
	if _, err := m.Columns("Ideal", "nope"); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestNormalized(t *testing.T) {
	m := smallMatrix(t)
	rows, means, err := m.Normalized("Ideal", ExecTime)
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	for i := range rows {
		if rows[i][0] != 1.0 {
			t.Errorf("reference column row %d = %v, want 1", i, rows[i][0])
		}
		// M-metric must be slower than Ideal everywhere.
		if rows[i][1] < 1.0 {
			t.Errorf("M-metric normalized %v < 1 on %s", rows[i][1], m.Benchmarks[i])
		}
	}
	if means[0] != 1.0 {
		t.Errorf("reference mean = %v", means[0])
	}
	if _, _, err := m.Normalized("nope", ExecTime); err == nil {
		t.Error("unknown reference accepted")
	}
}

func TestEDAPMatrix(t *testing.T) {
	m := smallMatrix(t)
	edap, err := m.EDAPMatrix("TLC", false)
	if err != nil {
		t.Fatalf("EDAPMatrix: %v", err)
	}
	if edap["TLC"] != 1.0 {
		t.Errorf("TLC self-normalized to %v", edap["TLC"])
	}
	// The MLC schemes have a ~0.77x area factor, so at comparable time and
	// energy their EDAP must undercut TLC.
	if edap["Ideal"] >= 1.0 {
		t.Errorf("Ideal EDAP %v not below TLC", edap["Ideal"])
	}
	if _, err := m.EDAPMatrix("nope", false); err == nil {
		t.Error("unknown reference accepted")
	}
	sys, err := m.EDAPMatrix("TLC", true)
	if err != nil {
		t.Fatalf("system EDAPMatrix: %v", err)
	}
	if sys["TLC"] != 1.0 {
		t.Errorf("system TLC self-normalized to %v", sys["TLC"])
	}
}

func TestRelativeLifetime(t *testing.T) {
	m := smallMatrix(t)
	life, err := m.RelativeLifetime("Ideal")
	if err != nil {
		t.Fatalf("RelativeLifetime: %v", err)
	}
	if life["Ideal"] != 1.0 {
		t.Errorf("Ideal self lifetime = %v", life["Ideal"])
	}
	// TLC spreads the same demand writes over more cells per line and
	// writes more cells per line write: per-cell wear matches Ideal.
	if life["TLC"] < 0.95 || life["TLC"] > 1.05 {
		t.Errorf("TLC relative lifetime = %v, want ~1", life["TLC"])
	}
}

func TestWriteTables(t *testing.T) {
	m := smallMatrix(t)
	rows, means, err := m.Normalized("Ideal", ExecTime)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNormalizedTable(&buf, "test table", m, rows, means); err != nil {
		t.Fatalf("WriteNormalizedTable: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"test table", "gcc", "hmmer", "MEAN", "M-metric"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteKeyValueTable(&buf, "kv", m.Schemes, map[string]float64{"Ideal": 1}); err != nil {
		t.Fatalf("WriteKeyValueTable: %v", err)
	}
	if !strings.Contains(buf.String(), "Ideal") {
		t.Error("kv table missing entry")
	}
}

func TestFormatDuration(t *testing.T) {
	if got := FormatDuration(1234567 * time.Nanosecond); got != "1.235ms" {
		t.Errorf("FormatDuration = %q", got)
	}
}
