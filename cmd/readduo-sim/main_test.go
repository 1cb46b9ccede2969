package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"readduo/internal/campaign"
	"readduo/internal/sim"
	"readduo/internal/trace"
)

// mustSchemes resolves a -schemes value the way the root command does.
func mustSchemes(t *testing.T, set string) []sim.Scheme {
	t.Helper()
	schemes, err := selectSchemes(set)
	if err != nil {
		t.Fatal(err)
	}
	return schemes
}

func TestSelectBenches(t *testing.T) {
	all, err := selectBenches("")
	if err != nil || len(all) != 14 {
		t.Errorf("default suite: %d, %v", len(all), err)
	}
	two, err := selectBenches("mcf, sphinx3")
	if err != nil || len(two) != 2 {
		t.Errorf("two benches: %d, %v", len(two), err)
	}
	if _, err := selectBenches("nonesuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSelectSchemes(t *testing.T) {
	for set, want := range map[string]int{"prior": 4, "readduo": 4, "all": 7} {
		s, err := selectSchemes(set)
		if err != nil || len(s) != want {
			t.Errorf("%s: %d schemes, %v", set, len(s), err)
		}
	}
	if _, err := selectSchemes("x"); err == nil {
		t.Error("unknown set accepted")
	}
}

// TestWriteJSONRoundTrip checks that -json output is self-describing: the
// campaign metadata block and per-job seed/wall-time/worker survive a
// marshal/unmarshal round trip.
func TestWriteJSONRoundTrip(t *testing.T) {
	gcc, _ := trace.ByName("gcc")
	opts := options{
		benchList: "gcc", schemeSet: "readduo", budget: 20_000, seed: 7,
		parallel: 2, journalPath: "run.jsonl",
	}
	spec, _, err := buildSpec(opts, mustSchemes(t, opts.schemeSet))
	if err != nil {
		t.Fatal(err)
	}
	spec.Schemes = spec.Schemes[:1] // Ideal only: keep the test fast
	outcome, err := campaign.Run(context.Background(), spec, campaign.Options{Parallel: opts.parallel})
	if err != nil {
		t.Fatal(err)
	}
	matrices, err := outcome.Matrices(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, spec, matrices, outcome, opts); err != nil {
		t.Fatal(err)
	}
	var got jsonOutput
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if got.Campaign.Seed != 7 || got.Campaign.Budget != 20_000 ||
		got.Campaign.Parallel != 2 || got.Campaign.Journal != "run.jsonl" {
		t.Errorf("campaign metadata = %+v", got.Campaign)
	}
	if len(got.Runs) != 1 {
		t.Fatalf("runs = %d", len(got.Runs))
	}
	r := got.Runs[0]
	if r.Scheme != "Ideal" || r.ExecTimeNS <= 0 {
		t.Errorf("run = %+v", r)
	}
	if r.Seed != campaign.JobSeed(7, gcc.Name) {
		t.Errorf("run seed %d, want derived %d", r.Seed, campaign.JobSeed(7, gcc.Name))
	}
	if r.WallMS <= 0 {
		t.Errorf("run wall time %v not captured", r.WallMS)
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("", 9)
	if err != nil || len(got) != 1 || got[0] != 9 {
		t.Errorf("default: %v, %v", got, err)
	}
	got, err = parseSeeds("1, 2,3", 9)
	if err != nil || len(got) != 3 || got[2] != 3 {
		t.Errorf("list: %v, %v", got, err)
	}
	if _, err := parseSeeds("1,x", 9); err == nil {
		t.Error("non-integer seed accepted")
	}
	if _, err := parseSeeds(",", 9); err == nil {
		t.Error("empty list accepted")
	}
}

// TestCorpusBenchmarksResolve pins the wiring the issue requires: the
// corpus scenarios are runnable through -benchmarks by name.
func TestCorpusBenchmarksResolve(t *testing.T) {
	benches, err := selectBenches("corpus:zipfian,corpus:scan")
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 2 || benches[0].Name != "corpus:zipfian" {
		t.Fatalf("benches = %+v", benches)
	}
}

// TestEmitBench runs a 2-seed matrix and checks the emitted go-bench
// lines: one run per seed per cell, sanitized names, the campaign
// fingerprint on the pkg line, and determinism across runs.
func TestEmitBench(t *testing.T) {
	opts := options{
		benchList: "corpus:zipfian", schemeSet: "Ideal,LWT-4",
		budget: 10_000, seedList: "1,2",
	}
	render := func() string {
		spec, _, err := buildSpec(opts, mustSchemes(t, opts.schemeSet))
		if err != nil {
			t.Fatal(err)
		}
		outcome, err := campaign.Run(context.Background(), spec, campaign.Options{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		matrices, err := outcome.Matrices(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := emitBench(&buf, spec, matrices); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out := render()
	if out != render() {
		t.Fatal("emit-bench output is not deterministic")
	}
	if !strings.Contains(out, "pkg: readduo/campaign/") {
		t.Errorf("missing fingerprint pkg line:\n%s", out)
	}
	// LWT-4 must sanitize to LWT_4 so benchjson's -N suffix strip
	// cannot mangle the name.
	if strings.Contains(out, "LWT-4") || !strings.Contains(out, "BenchmarkCampaign/corpus:zipfian/LWT_4") {
		t.Errorf("scheme name not sanitized:\n%s", out)
	}
	if n := strings.Count(out, "BenchmarkCampaign/corpus:zipfian/Ideal 1 "); n != 2 {
		t.Errorf("Ideal cell emitted %d runs, want 2 (one per seed):\n%s", n, out)
	}
	if !strings.Contains(out, "sim_ns") || !strings.Contains(out, "dyn_pJ") || !strings.Contains(out, "cell_writes") {
		t.Errorf("missing metrics:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, options{benchList: "gcc", schemeSet: "all", budget: 10_000, seed: 1, what: "nonesuch"}); err == nil ||
		!strings.Contains(err.Error(), "unknown report") {
		t.Errorf("bad report error = %v", err)
	}
	if err := run(ctx, options{schemeSet: "all", budget: 10_000, seed: 1, what: "time", traceFile: "/nonexistent/file"}); err == nil {
		t.Error("trace with full suite accepted")
	}
	if err := run(ctx, options{benchList: "gcc", schemeSet: "all", resume: true}); err == nil ||
		!strings.Contains(err.Error(), "-resume needs -journal") {
		t.Errorf("resume without journal = %v", err)
	}
}

// TestRunCampaignReportsPartialProgress guards against discarding every
// completed job when one fails: a campaign with one poisoned point must
// still report the jobs that finished.
func TestRunCampaignReportsPartialProgress(t *testing.T) {
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
	var progress bytes.Buffer
	_, _, err := runCampaign(context.Background(), spec, options{parallel: 2, progress: &progress})
	if err == nil || !strings.Contains(err.Error(), "3/4 jobs done, 1 failed") {
		t.Fatalf("poisoned campaign error = %v", err)
	}
	out := progress.String()
	for _, want := range []string{"s0/gcc/Ideal", "s0/gcc/LWT-4", "s0/hmmer/Ideal", "s0/hmmer/LWT-4", "FAILED"} {
		if !strings.Contains(out, want) {
			t.Errorf("partial report missing %q:\n%s", want, out)
		}
	}
}

// TestRunCampaignInterrupted verifies a cancelled campaign reports what it
// never started instead of failing silently.
func TestRunCampaignInterrupted(t *testing.T) {
	gcc, _ := trace.ByName("gcc")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any job starts
	spec := campaign.Spec{
		Benchmarks: []trace.Benchmark{gcc},
		Schemes:    []sim.Scheme{sim.Ideal()},
		Budget:     10_000,
	}
	var progress bytes.Buffer
	_, _, err := runCampaign(ctx, spec, options{parallel: 1, progress: &progress})
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("cancelled campaign error = %v", err)
	}
	if !strings.Contains(progress.String(), "not started") {
		t.Errorf("partial report missing pending count:\n%s", progress.String())
	}
}
