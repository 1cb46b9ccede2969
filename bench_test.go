// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each benchmark
// regenerates its artifact and reports the headline reproduced numbers as
// custom metrics, so `go test -bench=.` doubles as a reproduction run.
//
// The full-resolution artifacts come from cmd/readduo-sim and its
// subcommands (tables, sweep, edap); the benchmarks here run the same
// campaign path at reduced instruction budgets to stay wall-clock friendly.
package readduo_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"readduo/internal/area"
	"readduo/internal/bch"
	"readduo/internal/campaign"
	"readduo/internal/cell"
	"readduo/internal/drift"
	"readduo/internal/ecp"
	"readduo/internal/lwt"
	"readduo/internal/readout"
	"readduo/internal/reliability"
	"readduo/internal/report"
	"readduo/internal/sim"
	"readduo/internal/telemetry"
	"readduo/internal/trace"
	"readduo/internal/wearlevel"
)

// benchBudget keeps full-system benchmarks fast; the cmd tools default to
// larger budgets.
const benchBudget = 150_000

// benchSuite is a representative slice of the 14 workloads: the two the
// paper highlights plus a streaming and a balanced one.
func benchSuite(b *testing.B) []trace.Benchmark {
	b.Helper()
	var out []trace.Benchmark
	for _, name := range []string{"mcf", "sphinx3", "lbm", "gcc"} {
		bench, ok := trace.ByName(name)
		if !ok {
			b.Fatalf("missing benchmark %s", name)
		}
		out = append(out, bench)
	}
	return out
}

// runMatrix runs one campaign on a single worker, so each figure
// benchmark times serial simulation work.
func runMatrix(b *testing.B, benches []trace.Benchmark, schemes []sim.Scheme) *report.Matrix {
	b.Helper()
	spec := campaign.Spec{Benchmarks: benches, Schemes: schemes, Budget: benchBudget}
	outcome, err := campaign.Run(context.Background(), spec, campaign.Options{Parallel: 1})
	if err != nil {
		b.Fatal(err)
	}
	matrices, err := outcome.Matrices(spec)
	if err != nil {
		b.Fatal(err)
	}
	return matrices[0].Matrix
}

// BenchmarkTableI_DriftModel measures the R-metric crossing-probability
// evaluation that underlies every reliability number (Table I / Eq. 1).
func BenchmarkTableI_DriftModel(b *testing.B) {
	cfg := drift.RMetricConfig()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += cfg.AvgCellErrorProb(640)
	}
	_ = sink
}

// BenchmarkTableIII_LER_R regenerates the full R-metric LER grid.
func BenchmarkTableIII_LER_R(b *testing.B) {
	an, err := reliability.NewAnalyzer(drift.RMetricConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var tab reliability.Table
	for i := 0; i < b.N; i++ {
		tab = an.BuildTable(reliability.PaperIntervals(), reliability.PaperECCs())
	}
	b.StopTimer()
	// Headline cells: (BCH=8, S=8) meets the budget; (BCH=8, S=640) does not.
	b.ReportMetric(tab.Values[1][3], "LER(E8,S8)")
	b.ReportMetric(tab.Values[8][3], "LER(E8,S640)")
}

// BenchmarkTableIV_LER_M regenerates the M-metric grid.
func BenchmarkTableIV_LER_M(b *testing.B) {
	an, err := reliability.NewAnalyzer(drift.MMetricConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var tab reliability.Table
	for i := 0; i < b.N; i++ {
		tab = an.BuildTable(reliability.PaperIntervals(), reliability.PaperECCs())
	}
	b.StopTimer()
	b.ReportMetric(tab.Values[8][3], "LER(E8,S640)")
}

// BenchmarkTableV_WPolicy evaluates the W=1 interval probabilities.
func BenchmarkTableV_WPolicy(b *testing.B) {
	an, err := reliability.NewAnalyzer(drift.RMetricConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var p2 float64
	for i := 0; i < b.N; i++ {
		var err error
		p2, err = an.WPolicySecondInterval(8, 1, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(p2, "probII(R,8,8)")
}

// BenchmarkTableVII_Area evaluates the NVSim-lite floorplan.
func BenchmarkTableVII_Area(b *testing.B) {
	sub := area.DefaultSubarray()
	var ovh float64
	for i := 0; i < b.N; i++ {
		var err error
		ovh, err = sub.HybridOverhead()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ovh*100, "overhead%")
}

// BenchmarkTableX_Workloads measures synthetic trace generation throughput.
func BenchmarkTableX_Workloads(b *testing.B) {
	bench, ok := trace.ByName("mcf")
	if !ok {
		b.Fatal("mcf missing")
	}
	gen, err := trace.NewGenerator(bench, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Next(i & 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3_Motivation compares the prior schemes (Scrubbing,
// M-metric, TLC) against Ideal — the study that motivates ReadDuo.
func BenchmarkFigure3_Motivation(b *testing.B) {
	benches := benchSuite(b)
	schemes := []sim.Scheme{sim.Ideal(), sim.Scrubbing(), sim.MMetric(), sim.TLC()}
	var means []float64
	for i := 0; i < b.N; i++ {
		m := runMatrix(b, benches, schemes)
		_, mm, err := m.Normalized("Ideal", report.ExecTime)
		if err != nil {
			b.Fatal(err)
		}
		means = mm
	}
	b.ReportMetric(means[1], "Scrubbing-x")
	b.ReportMetric(means[2], "M-metric-x")
	b.ReportMetric(means[3], "TLC-x")
}

// BenchmarkFigure6_SDWDistribution runs the cell-population study behind
// the full-vs-selective rewrite argument on the sharded Monte-Carlo
// kernel. The shard count is pinned (part of the determinism key); the
// worker pool sizes itself to the machine.
func BenchmarkFigure6_SDWDistribution(b *testing.B) {
	const shards = 8
	var crowd float64
	for i := 0; i < b.N; i++ {
		p, err := cell.NewShardedPopulation(drift.RMetricConfig(), 2, 20000, 1, shards, 0)
		if err != nil {
			b.Fatal(err)
		}
		drifted := p.DriftedCells(640)
		p.RewriteCells(drifted, 640)
		crowd = p.GuardBandMass(640, 0.25)
	}
	b.ReportMetric(crowd*100, "guardband%")
}

// BenchmarkFigure9_Performance runs the headline execution-time comparison
// across all seven schemes.
func BenchmarkFigure9_Performance(b *testing.B) {
	benches := benchSuite(b)
	schemes := []sim.Scheme{
		sim.Ideal(), sim.Scrubbing(), sim.MMetric(), sim.TLC(),
		sim.Hybrid(), sim.LWT(4, true), sim.Select(4, 2),
	}
	var means []float64
	for i := 0; i < b.N; i++ {
		m := runMatrix(b, benches, schemes)
		_, mm, err := m.Normalized("Ideal", report.ExecTime)
		if err != nil {
			b.Fatal(err)
		}
		means = mm
	}
	b.ReportMetric(means[4], "Hybrid-x")
	b.ReportMetric(means[5], "LWT4-x")
	b.ReportMetric(means[6], "Select42-x")
}

// BenchmarkFigure10_Energy runs the dynamic-energy comparison.
func BenchmarkFigure10_Energy(b *testing.B) {
	benches := benchSuite(b)
	schemes := []sim.Scheme{sim.Ideal(), sim.Scrubbing(), sim.Hybrid(), sim.LWT(4, true), sim.Select(4, 2)}
	var means []float64
	for i := 0; i < b.N; i++ {
		m := runMatrix(b, benches, schemes)
		_, mm, err := m.Normalized("Ideal", report.DynamicEnergy)
		if err != nil {
			b.Fatal(err)
		}
		means = mm
	}
	b.ReportMetric(means[3], "LWT4-energy-x")
	b.ReportMetric(means[4], "Select42-energy-x")
}

// BenchmarkFigure11_EDAP computes the energy-delay-area comparison against
// TLC.
func BenchmarkFigure11_EDAP(b *testing.B) {
	benches := benchSuite(b)
	schemes := []sim.Scheme{sim.TLC(), sim.Scrubbing(), sim.MMetric(), sim.LWT(4, true), sim.Select(4, 2)}
	var productD map[string]float64
	for i := 0; i < b.N; i++ {
		m := runMatrix(b, benches, schemes)
		var err error
		productD, err = m.EDAPMatrix("TLC", false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(productD["LWT-4"], "LWT4-EDAP-vs-TLC")
	b.ReportMetric(productD["Select-4:2"], "Select42-EDAP-vs-TLC")
}

// BenchmarkFigure12_SubintervalK sweeps the tracking granularity.
func BenchmarkFigure12_SubintervalK(b *testing.B) {
	benches := benchSuite(b)
	schemes := []sim.Scheme{sim.Ideal(), sim.LWT(2, true), sim.LWT(4, true)}
	var means []float64
	for i := 0; i < b.N; i++ {
		m := runMatrix(b, benches, schemes)
		_, mm, err := m.Normalized("Ideal", report.ExecTime)
		if err != nil {
			b.Fatal(err)
		}
		means = mm
	}
	b.ReportMetric(100*(means[1]-means[2])/means[1], "k4-vs-k2-%")
}

// BenchmarkFigure13_RewriteS sweeps the selective-rewrite spacing.
func BenchmarkFigure13_RewriteS(b *testing.B) {
	benches := benchSuite(b)
	schemes := []sim.Scheme{sim.Ideal(), sim.Select(4, 1), sim.Select(4, 2)}
	var means []float64
	for i := 0; i < b.N; i++ {
		m := runMatrix(b, benches, schemes)
		_, mm, err := m.Normalized("Ideal", report.DynamicEnergy)
		if err != nil {
			b.Fatal(err)
		}
		means = mm
	}
	b.ReportMetric(100*(means[1]-means[2])/means[1], "s2-vs-s1-energy-%")
}

// BenchmarkFigure14_Conversion compares LWT with and without R-M-read
// conversion (sphinx3 is the paper's showcase).
func BenchmarkFigure14_Conversion(b *testing.B) {
	bench, ok := trace.ByName("sphinx3")
	if !ok {
		b.Fatal("sphinx3 missing")
	}
	schemes := []sim.Scheme{sim.Ideal(), sim.LWT(4, false), sim.LWT(4, true)}
	var means []float64
	for i := 0; i < b.N; i++ {
		m := runMatrix(b, []trace.Benchmark{bench}, schemes)
		_, mm, err := m.Normalized("Ideal", report.ExecTime)
		if err != nil {
			b.Fatal(err)
		}
		means = mm
	}
	b.ReportMetric(100*(means[1]-means[2])/means[1], "conversion-gain-%")
}

// BenchmarkFigure15_Lifetime compares write traffic across schemes.
func BenchmarkFigure15_Lifetime(b *testing.B) {
	benches := benchSuite(b)
	schemes := []sim.Scheme{sim.Ideal(), sim.Scrubbing(), sim.Hybrid(), sim.LWT(4, true), sim.Select(4, 2)}
	var life map[string]float64
	for i := 0; i < b.N; i++ {
		m := runMatrix(b, benches, schemes)
		var err error
		life, err = m.RelativeLifetime("Ideal")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(life["Select-4:2"], "Select42-lifetime-x")
	b.ReportMetric(life["LWT-4"], "LWT4-lifetime-x")
}

// BenchmarkBCHEncode and BenchmarkBCHDecode measure the line codec.
func BenchmarkBCHEncode(b *testing.B) {
	code, err := bch.New(10, 8, 512)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, code.DataBytes())
	rand.New(rand.NewSource(1)).Read(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBCHDecodeClean(b *testing.B) {
	code, err := bch.New(10, 8, 512)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, code.DataBytes())
	rand.New(rand.NewSource(1)).Read(data)
	parity, err := code.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Decode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBCHDecodeEightErrors(b *testing.B) {
	code, err := bch.New(10, 8, 512)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, code.DataBytes())
	rng.Read(data)
	parity, err := code.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := append([]byte(nil), data...)
		p := append([]byte(nil), parity...)
		for e := 0; e < 8; e++ {
			pos := rng.Intn(512)
			d[pos/8] ^= 1 << (pos % 8)
		}
		b.StartTimer()
		if _, err := code.Decode(d, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignEngine runs a reduced evaluation matrix through the
// parallel campaign engine at GOMAXPROCS workers — the configuration
// readduo-sim uses for the full 7x14 matrix.
func BenchmarkCampaignEngine(b *testing.B) {
	spec := campaign.Spec{
		Benchmarks: benchSuite(b),
		Schemes:    []sim.Scheme{sim.Ideal(), sim.Hybrid(), sim.LWT(4, true)},
		Budget:     benchBudget,
	}
	var done int
	for i := 0; i < b.N; i++ {
		out, err := campaign.Run(context.Background(), spec, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if out.Failed > 0 {
			b.Fatalf("%d jobs failed", out.Failed)
		}
		done = out.Done
	}
	b.ReportMetric(float64(done), "jobs/op")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkSimulatorThroughput measures end-to-end simulated instructions
// per second of wall clock.
func BenchmarkSimulatorThroughput(b *testing.B) {
	bench, ok := trace.ByName("gcc")
	if !ok {
		b.Fatal("gcc missing")
	}
	cfg := sim.DefaultConfig(bench)
	cfg.CPU.InstrBudget = benchBudget
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, sim.LWT(4, true)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchBudget*4), "instrs/op")
}

// --- Ablation benchmarks: the design choices DESIGN.md calls out ---

// BenchmarkAblationWriteCancellation quantifies the value of write
// cancellation/pausing: without it, demand reads wait behind 1000 ns
// programming operations.
func BenchmarkAblationWriteCancellation(b *testing.B) {
	bench, ok := trace.ByName("lbm") // write-heavy: cancellation matters most
	if !ok {
		b.Fatal("lbm missing")
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(bench)
		cfg.CPU.InstrBudget = benchBudget
		r1, err := sim.Run(cfg, sim.Ideal())
		if err != nil {
			b.Fatal(err)
		}
		cfg.Mem.CancelWrites = false
		r2, err := sim.Run(cfg, sim.Ideal())
		if err != nil {
			b.Fatal(err)
		}
		with, without = float64(r1.ExecTime), float64(r2.ExecTime)
	}
	b.ReportMetric(without/with, "no-cancel-slowdown-x")
}

// BenchmarkAblationMLP quantifies the memory-level-parallelism window: a
// strictly blocking core (MLP=1) exposes the full sensing latency on every
// read.
func BenchmarkAblationMLP(b *testing.B) {
	bench, ok := trace.ByName("milc")
	if !ok {
		b.Fatal("milc missing")
	}
	var mlp4, mlp1 float64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(bench)
		cfg.CPU.InstrBudget = benchBudget
		r1, err := sim.Run(cfg, sim.MMetric())
		if err != nil {
			b.Fatal(err)
		}
		cfg.CPU.MLP = 1
		r2, err := sim.Run(cfg, sim.MMetric())
		if err != nil {
			b.Fatal(err)
		}
		mlp4, mlp1 = float64(r1.ExecTime), float64(r2.ExecTime)
	}
	b.ReportMetric(mlp1/mlp4, "blocking-core-slowdown-x")
}

// BenchmarkAblationConversionEconomics compares the adaptive converter
// against forced-always and forced-never conversion on the showcase
// workload.
func BenchmarkAblationConversionEconomics(b *testing.B) {
	bench, ok := trace.ByName("sphinx3")
	if !ok {
		b.Fatal("sphinx3 missing")
	}
	var adaptive, never float64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(bench)
		cfg.CPU.InstrBudget = 1_000_000
		r1, err := sim.Run(cfg, sim.LWT(4, true))
		if err != nil {
			b.Fatal(err)
		}
		r2, err := sim.Run(cfg, sim.LWT(4, false))
		if err != nil {
			b.Fatal(err)
		}
		adaptive, never = float64(r1.ExecTime), float64(r2.ExecTime)
	}
	b.ReportMetric(never/adaptive, "adaptive-vs-never-x")
}

// BenchmarkAblationScrubWalkRate verifies the scrub engine's bandwidth
// theft scales with the interval: S=8s steals ~16% of a bank, S=640s a
// fraction of a percent.
func BenchmarkAblationScrubWalkRate(b *testing.B) {
	bench, ok := trace.ByName("gcc")
	if !ok {
		b.Fatal("gcc missing")
	}
	var busyShort, busyLong float64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(bench)
		cfg.CPU.InstrBudget = benchBudget
		r1, err := sim.Run(cfg, sim.Scrubbing()) // S=8s
		if err != nil {
			b.Fatal(err)
		}
		r2, err := sim.Run(cfg, sim.MMetric()) // S=640s
		if err != nil {
			b.Fatal(err)
		}
		busyShort = float64(r1.Mem.ScrubReads)
		busyLong = float64(r2.Mem.ScrubReads)
	}
	b.ReportMetric(busyShort/busyLong, "scrub-traffic-ratio-x")
}

// --- Substrate micro-benchmarks ---

// BenchmarkDeviceRead measures the cell-fidelity ReadDuo pipeline (tracked
// fast path).
func BenchmarkDeviceRead(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d, err := readout.NewDevice(readout.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, d.DataBytes())
	rng.Read(data)
	if _, err := d.Write(data, 0, rng); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Read(1+float64(i)*1e-6, nil, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLWTOracle measures the closed-form freshness test the simulator
// evaluates per read.
func BenchmarkLWTOracle(b *testing.B) {
	var sink bool
	for i := 0; i < b.N; i++ {
		sub := lwt.SubIndex(int64(i)*1_000_000, 12345, 640_000_000_000_000, 4)
		sink = lwt.AllowRSenseAt(4, sub, sub-3)
	}
	_ = sink
}

// BenchmarkStartGapMap measures the wear-leveling address translation.
func BenchmarkStartGapMap(b *testing.B) {
	sg, err := wearlevel.New(1<<20, 100)
	if err != nil {
		b.Fatal(err)
	}
	var sink uint64
	for i := 0; i < b.N; i++ {
		pa, err := sg.Map(uint64(i) & (1<<20 - 1))
		if err != nil {
			b.Fatal(err)
		}
		sink += pa
		sg.OnWrite()
	}
	_ = sink
}

// BenchmarkECPWrite measures a verified write through an ECP-protected line
// with wearout armed.
func BenchmarkECPWrite(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	line, err := cell.NewLine(drift.RMetricConfig(), drift.MMetricConfig(), mustLineCode(b))
	if err != nil {
		b.Fatal(err)
	}
	line.ArmWearout(1e9, 0.25, rng) // effectively unlimited: measure the verify cost
	pl, err := ecp.NewProtectedLine(line, 6)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, pl.DataBytes())
	rng.Read(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pl.Write(data, float64(i), rng); err != nil {
			b.Fatal(err)
		}
	}
}

func mustLineCode(b *testing.B) *bch.Code {
	b.Helper()
	code, err := bch.New(10, 8, 512)
	if err != nil {
		b.Fatal(err)
	}
	return code
}

// --- Engine and observability micro-benchmarks ---

// engineSchemes is the per-family benchmark set: one representative of
// every read/scrub/write policy combination the registry exposes.
func engineSchemes() []sim.Scheme {
	return []sim.Scheme{
		sim.Ideal(), sim.Scrubbing(), sim.MMetric(), sim.TLC(),
		sim.Hybrid(), sim.LWT(4, true), sim.Select(4, 2),
	}
}

// BenchmarkEngineScheme measures engine read/write dispatch throughput
// per scheme family with telemetry disabled — the baseline the
// Telemetry variant below is compared against.
func BenchmarkEngineScheme(b *testing.B) {
	bench, ok := trace.ByName("gcc")
	if !ok {
		b.Fatal("gcc missing")
	}
	for _, s := range engineSchemes() {
		b.Run(s.Name(), func(b *testing.B) {
			cfg := sim.DefaultConfig(bench)
			cfg.CPU.InstrBudget = benchBudget
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(cfg, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSchemeTelemetry reruns the same engines with a live
// registry attached: the delta against BenchmarkEngineScheme is the
// instrumented-path cost (the disabled path is covered by the nil
// variants of the Telemetry* benchmarks below).
func BenchmarkEngineSchemeTelemetry(b *testing.B) {
	bench, ok := trace.ByName("gcc")
	if !ok {
		b.Fatal("gcc missing")
	}
	reg := telemetry.NewRegistry("bench")
	for _, s := range engineSchemes() {
		b.Run(s.Name(), func(b *testing.B) {
			cfg := sim.DefaultConfig(bench)
			cfg.CPU.InstrBudget = benchBudget
			cfg.Telemetry = reg
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(cfg, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProbCacheColdBuild measures the quadrature-heavy probability
// table construction the memo table normally amortizes away.
func BenchmarkProbCacheColdBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim.PurgeSharedCaches()
		sim.SharedProbTable(drift.MetricR, 8)
	}
}

// BenchmarkProbCacheHotLookup measures the age-indexed lookup on the
// scrub-scan and hybrid-read hot paths.
func BenchmarkProbCacheHotLookup(b *testing.B) {
	tab := sim.SharedProbTable(drift.MetricR, 8)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += tab.Retry(1 + float64(i&1023))
	}
	_ = sink
}

// BenchmarkTelemetryCounter compares the disabled (nil) and live probe
// paths of the counter, the metric on every engine dispatch.
func BenchmarkTelemetryCounter(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		var c *telemetry.Counter
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("live", func(b *testing.B) {
		c := telemetry.NewRegistry("bench").Counter("c")
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
}

// BenchmarkTelemetryHistogram compares the disabled and live paths of
// the lock-striped histogram.
func BenchmarkTelemetryHistogram(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		var h *telemetry.Histogram
		for i := 0; i < b.N; i++ {
			h.Observe(uint64(i))
		}
	})
	b.Run("live", func(b *testing.B) {
		h := telemetry.NewRegistry("bench").Histogram("h")
		for i := 0; i < b.N; i++ {
			h.Observe(uint64(i))
		}
	})
	b.Run("live-parallel", func(b *testing.B) {
		h := telemetry.NewRegistry("bench").Histogram("h")
		b.RunParallel(func(pb *testing.PB) {
			var i uint64
			for pb.Next() {
				h.Observe(i)
				i++
			}
		})
	})
}
