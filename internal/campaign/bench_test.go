package campaign

import (
	"context"
	"runtime"
	"testing"
	"time"

	_ "readduo/internal/corpus" // registers corpus:write-heavy
	"readduo/internal/sim"
	"readduo/internal/trace"
)

// shortJobSpec is the sim-sweep shape: gcc, hmmer and astar x the seven
// paper designs x 250-350 K in 25 K steps, 105 jobs at 25k instructions
// per core, the /v1/compare default budget.
func shortJobSpec(b *testing.B) Spec {
	b.Helper()
	spec := Spec{Budget: 25_000}
	for _, name := range []string{"gcc", "hmmer", "astar"} {
		bench, ok := trace.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %q", name)
		}
		spec.Benchmarks = append(spec.Benchmarks, bench)
	}
	for _, tempK := range []float64{250, 275, 300, 325, 350} {
		for _, name := range []string{"Ideal", "Scrubbing", "M-metric", "TLC", "Hybrid", "LWT-4", "Select-4:2"} {
			sch, err := sim.Parse(name)
			if err != nil {
				b.Fatal(err)
			}
			if tempK != 300 {
				if sch, err = sch.AtEnv(sim.Environment{TempK: tempK}); err != nil {
					b.Fatal(err)
				}
			}
			spec.Schemes = append(spec.Schemes, sch)
		}
	}
	return spec
}

// BenchmarkCampaignShortJobs runs the sim-sweep shape. A short job's
// events are few, so what it pays outside them (scheduling, engine
// construction, table lookups) shows here.
func BenchmarkCampaignShortJobs(b *testing.B) { benchCampaign(b, shortJobSpec(b)) }

// longRowSpec is the sim-write shape at 200k instructions per core: lbm
// and corpus:write-heavy x Ideal, Scrubbing, TLC, LWT-4, Select-4:2 and
// LWC-8, two rows of six jobs.
func longRowSpec(b *testing.B) Spec {
	b.Helper()
	spec := Spec{Budget: 200_000}
	for _, name := range []string{"lbm", "corpus:write-heavy"} {
		bench, ok := trace.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %q", name)
		}
		spec.Benchmarks = append(spec.Benchmarks, bench)
	}
	for _, name := range []string{"Ideal", "Scrubbing", "TLC", "LWT-4", "Select-4:2", "LWC-8"} {
		sch, err := sim.Parse(name)
		if err != nil {
			b.Fatal(err)
		}
		spec.Schemes = append(spec.Schemes, sch)
	}
	return spec
}

// BenchmarkCampaignLongRows is BenchmarkCampaignShortJobs's long-row
// counterpart: the sim-write shape, where every job after its row's
// first replays the row's engine tape.
func BenchmarkCampaignLongRows(b *testing.B) { benchCampaign(b, longRowSpec(b)) }

// benchCampaign runs spec through Run at Parallel 1, after one untimed
// campaign has built every probability table, and reports ns/job,
// allocs/job and B/job.
func benchCampaign(b *testing.B, spec Spec) {
	jobs := len(spec.Jobs())
	run := func() {
		out, err := Run(context.Background(), spec, Options{Parallel: 1})
		if err != nil {
			b.Fatal(err)
		}
		if out.Done != jobs {
			b.Fatalf("outcome = %+v", out)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		run()
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * jobs)
	b.ReportMetric(float64(elapsed.Nanoseconds())/n, "ns/job")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/job")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/job")
}
