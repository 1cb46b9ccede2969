package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"readduo/internal/campaign"
	"readduo/internal/obs"
	"readduo/internal/sim"
	"readduo/internal/trace"
)

// runSweep calls run with the default temperature-sweep knobs, keeping the
// older test cases readable.
func runSweep(ctx context.Context, sweep string, budget uint64, seed int64, benchList string, parallel int, schemeList string, session *obs.Session) error {
	return run(ctx, sweep, budget, seed, benchList, parallel, schemeList, "scrubbing", "250,300,350", session)
}

func TestRunSweepValidation(t *testing.T) {
	ctx := context.Background()
	if err := runSweep(ctx, "nonesuch", 10_000, 1, "gcc", 1, "", new(obs.Session)); err == nil {
		t.Error("unknown sweep accepted")
	}
	if err := runSweep(ctx, "k", 10_000, 1, "nonesuch", 1, "", new(obs.Session)); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := runSweep(ctx, "custom", 10_000, 1, "gcc", 1, "", new(obs.Session)); err == nil {
		t.Error("custom sweep without -schemes accepted")
	}
	if err := runSweep(ctx, "custom", 10_000, 1, "gcc", 1, "Ideal", new(obs.Session)); err == nil {
		t.Error("single-scheme custom sweep accepted")
	}
	if err := runSweep(ctx, "custom", 10_000, 1, "gcc", 1, "Ideal,bogus", new(obs.Session)); err == nil {
		t.Error("bogus custom scheme list accepted")
	}
}

// TestTemperatureSchemes pins the -sweep=temp expansion: each -temps point
// decorates the base scheme, the 300 K point normalizes to the plain base,
// and malformed axes are rejected before any simulation runs.
func TestTemperatureSchemes(t *testing.T) {
	schemes, err := temperatureSchemes("scrubbing", "250, 300 ,350")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range schemes {
		names = append(names, s.Name())
	}
	want := []string{"Scrubbing@temp=250", "Scrubbing", "Scrubbing@temp=350"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("point %d = %q, want %q", i, names[i], want[i])
		}
	}
	for base, temps := range map[string]string{
		"bogus":     "250,350", // unknown base scheme
		"scrubbing": "250,x",   // non-numeric point
		"ideal":     "250",     // needs at least two points
		"hybrid":    "2,350",   // outside the modeled range
		"lwt:k=4":   "",        // empty axis
	} {
		if _, err := temperatureSchemes(base, temps); err == nil {
			t.Errorf("temperatureSchemes(%q, %q) accepted", base, temps)
		}
	}
}

// TestRunTempSweep drives the temperature sweep end to end on a small
// budget: cryo, default, and hot points of the scrubbing scheme.
func TestRunTempSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	err := run(context.Background(), "temp", 30_000, 1, "gcc", 2, "", "scrubbing", "250,300,350", new(obs.Session))
	if err != nil {
		t.Errorf("temp sweep: %v", err)
	}
}

func TestRunSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	for _, sweep := range []string{"k", "s", "conversion"} {
		if err := runSweep(context.Background(), sweep, 30_000, 1, "gcc", 2, "", new(obs.Session)); err != nil {
			t.Errorf("run(%s): %v", sweep, err)
		}
	}
}

// TestRunCustomSweep exercises a design point the fixed sweeps never
// built: an LWT-8 line with selective rewrites layered next to it.
func TestRunCustomSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	if err := runSweep(context.Background(), "custom", 30_000, 1, "gcc", 2, "Ideal,lwt:k=8,Select-8:4", new(obs.Session)); err != nil {
		t.Errorf("custom sweep: %v", err)
	}
}

// TestCampaignMatrixReportsPartialProgress is the regression test for the
// old behavior of discarding every completed point when one run failed: a
// sweep with one poisoned point must still report the points that finished.
func TestCampaignMatrixReportsPartialProgress(t *testing.T) {
	gcc, _ := trace.ByName("gcc")
	hmmer, _ := trace.ByName("hmmer")
	spec := campaign.Spec{
		Benchmarks: []trace.Benchmark{gcc, hmmer},
		Schemes:    []sim.Scheme{sim.Ideal(), sim.LWT(4, true)},
		Budget:     15_000,
		Configure: func(job campaign.Job, cfg *sim.Config) {
			if job.Benchmark.Name == "hmmer" && job.Scheme.Name() == "LWT-4" {
				cfg.EpochReads = -1 // invalid: this point fails validation
			}
		},
	}
	var partial bytes.Buffer
	_, err := campaignMatrix(context.Background(), spec, 2, &partial, new(obs.Session))
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("poisoned sweep error = %v", err)
	}
	out := partial.String()
	if !strings.Contains(out, "3/4 points done") {
		t.Errorf("partial report missing completion count:\n%s", out)
	}
	for _, want := range []string{"s0/gcc/Ideal", "s0/gcc/LWT-4", "s0/hmmer/Ideal", "FAILED"} {
		if !strings.Contains(out, want) {
			t.Errorf("partial report missing %q:\n%s", want, out)
		}
	}
}

// TestCampaignMatrixInterrupted verifies a cancelled sweep reports what it
// finished instead of discarding it.
func TestCampaignMatrixInterrupted(t *testing.T) {
	gcc, _ := trace.ByName("gcc")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any job starts
	spec := campaign.Spec{
		Benchmarks: []trace.Benchmark{gcc},
		Schemes:    []sim.Scheme{sim.Ideal()},
		Budget:     10_000,
	}
	var partial bytes.Buffer
	_, err := campaignMatrix(ctx, spec, 1, &partial, new(obs.Session))
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("cancelled sweep error = %v", err)
	}
	if !strings.Contains(partial.String(), "not started") {
		t.Errorf("partial report missing pending count:\n%s", partial.String())
	}
}
