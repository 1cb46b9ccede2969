package sim

import (
	"strings"
	"testing"
	"time"

	"readduo/internal/drift"
	"readduo/internal/trace"
)

// testConfig returns a configuration sized for fast tests: the full memory
// geometry (so scrub rates are authentic) but a small instruction budget.
func testConfig(t *testing.T, bench string, budget uint64) Config {
	t.Helper()
	b, ok := trace.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	cfg := DefaultConfig(b)
	cfg.CPU.InstrBudget = budget
	return cfg
}

func mustRun(t *testing.T, cfg Config, s Scheme) *Result {
	t.Helper()
	r, err := Run(cfg, s)
	if err != nil {
		t.Fatalf("Run(%s): %v", s.Name(), err)
	}
	return r
}

func TestSchemeValidation(t *testing.T) {
	valid := []Scheme{Ideal(), Scrubbing(), MMetric(), TLC(), Hybrid(), LWT(4, true), Select(4, 2)}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", s.Name(), err)
		}
	}
	invalid := []Scheme{
		LWT(1, true),
		Select(4, 0),
		Select(4, 5),
		{}, // zero value: no modes
		Compose("stray-k", Design{Sense: SenseR, Write: WritePlain, K: 4}),
		Compose("w2", Design{Sense: SenseR, Write: WritePlain,
			Scrub: Scrub{Interval: time.Second, Metric: drift.MetricR, W: 2}}),
	}
	for _, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v accepted", s)
		}
	}
}

func TestSchemeNames(t *testing.T) {
	tests := []struct {
		s    Scheme
		want string
	}{
		{Ideal(), "Ideal"},
		{Scrubbing(), "Scrubbing"},
		{MMetric(), "M-metric"},
		{TLC(), "TLC"},
		{Hybrid(), "Hybrid"},
		{LWT(4, true), "LWT-4"},
		{LWT(2, false), "LWT-2-noconv"},
		{Select(4, 2), "Select-4:2"},
	}
	for _, tt := range tests {
		if got := tt.s.Name(); got != tt.want {
			t.Errorf("Name = %q, want %q", got, tt.want)
		}
	}
}

func TestSchemeFlagBits(t *testing.T) {
	if got := LWT(4, true).FlagBits(); got != 6 {
		t.Errorf("LWT-4 flag bits = %d, want 6", got)
	}
	if got := LWT(2, true).FlagBits(); got != 3 {
		t.Errorf("LWT-2 flag bits = %d, want 3", got)
	}
	if got := Ideal().FlagBits(); got != 0 {
		t.Errorf("Ideal flag bits = %d, want 0", got)
	}
}

func TestRunIdeal(t *testing.T) {
	cfg := testConfig(t, "bzip2", 100_000)
	r := mustRun(t, cfg, Ideal())
	if r.ExecTime <= 0 {
		t.Fatal("no execution time")
	}
	if r.MReads != 0 || r.RMReads != 0 {
		t.Errorf("Ideal used non-R reads: %d/%d", r.MReads, r.RMReads)
	}
	if r.Mem.ScrubReads != 0 {
		t.Errorf("Ideal scrubbed %d times", r.Mem.ScrubReads)
	}
	// Instructions reports only the measured (post-warmup) window.
	want := uint64(float64(4*100_000) * (1 - cfg.WarmupFrac))
	if r.Instructions < want*9/10 || r.Instructions > 4*100_000 {
		t.Errorf("measured %d instructions, want ~%d", r.Instructions, want)
	}
	if r.RReads == 0 || r.FullWrites == 0 {
		t.Errorf("no memory traffic: %+v", r)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := testConfig(t, "gcc", 50_000)
	r1 := mustRun(t, cfg, LWT(4, true))
	r2 := mustRun(t, cfg, LWT(4, true))
	if r1.ExecTime != r2.ExecTime || r1.CellWrites != r2.CellWrites ||
		r1.UntrackedReads != r2.UntrackedReads || r1.Conversions != r2.Conversions {
		t.Errorf("same seed diverged: %+v vs %+v", r1, r2)
	}
}

func TestMMetricAllVoltageReads(t *testing.T) {
	cfg := testConfig(t, "bzip2", 50_000)
	r := mustRun(t, cfg, MMetric())
	if r.RReads != 0 || r.RMReads != 0 {
		t.Errorf("M-metric issued R/RM reads: %d/%d", r.RReads, r.RMReads)
	}
	if r.MReads == 0 {
		t.Error("no M-reads recorded")
	}
}

func TestScrubbingGeneratesScrubTraffic(t *testing.T) {
	cfg := testConfig(t, "bzip2", 100_000)
	r := mustRun(t, cfg, Scrubbing())
	if r.Mem.ScrubReads == 0 {
		t.Fatal("no scrub reads under 8 s scrubbing")
	}
	// At S=8s over 2^26 lines the walker runs ~8.4M visits/s; even a
	// sub-millisecond window sees thousands.
	perSecond := float64(r.Mem.ScrubReads) / r.ExecTime.Seconds()
	want := float64(cfg.Mem.TotalLines) / 8
	if perSecond < want*0.8 || perSecond > want*1.2 {
		t.Errorf("scrub rate %.3g/s, want ~%.3g/s", perSecond, want)
	}
}

// TestFigure9Shape checks the headline performance ordering on a
// mid-intensity workload: Ideal <= Hybrid/LWT < Scrubbing, M-metric; and the
// ReadDuo schemes beat both prior schemes.
func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system comparison")
	}
	cfg := testConfig(t, "milc", 600_000)
	ideal := mustRun(t, cfg, Ideal())
	scrub := mustRun(t, cfg, Scrubbing())
	mmetric := mustRun(t, cfg, MMetric())
	lwt := mustRun(t, cfg, LWT(4, true))

	norm := func(r *Result) float64 {
		return float64(r.ExecTime) / float64(ideal.ExecTime)
	}
	if n := norm(scrub); n < 1.02 {
		t.Errorf("Scrubbing normalized time %.3f, want visible degradation", n)
	}
	if n := norm(mmetric); n < 1.05 {
		t.Errorf("M-metric normalized time %.3f, want visible degradation", n)
	}
	if norm(lwt) >= norm(mmetric) {
		t.Errorf("LWT-4 (%.3f) not faster than M-metric (%.3f)", norm(lwt), norm(mmetric))
	}
	if norm(lwt) >= norm(scrub) {
		t.Errorf("LWT-4 (%.3f) not faster than Scrubbing (%.3f)", norm(lwt), norm(scrub))
	}
}

func TestSelectReducesWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system comparison")
	}
	// A write-heavy workload: Select-(4:2) must program clearly fewer
	// cells than LWT-4 (full writes only).
	cfg := testConfig(t, "lbm", 300_000)
	lwtRes := mustRun(t, cfg, LWT(4, true))
	sel := mustRun(t, cfg, Select(4, 2))
	if sel.DiffWrites == 0 {
		t.Fatal("Select issued no differential writes")
	}
	if sel.CellWrites >= lwtRes.CellWrites {
		t.Errorf("Select cell writes %d not below LWT %d", sel.CellWrites, lwtRes.CellWrites)
	}
}

func TestConversionHelpsSphinx(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system comparison")
	}
	// sphinx3 reads old data: without conversion every such read stays an
	// R-M-read; with conversion the hot ones become tracked.
	cfg := testConfig(t, "sphinx3", 1_500_000)
	with := mustRun(t, cfg, LWT(4, true))
	without := mustRun(t, cfg, LWT(4, false))
	if with.Conversions == 0 {
		t.Fatal("no conversions on sphinx3")
	}
	if with.UntrackedFraction() >= without.UntrackedFraction() {
		t.Errorf("conversion did not reduce untracked fraction: %.3f vs %.3f",
			with.UntrackedFraction(), without.UntrackedFraction())
	}
	if with.ExecTime > without.ExecTime {
		t.Errorf("conversion slowed sphinx3: %v vs %v", with.ExecTime, without.ExecTime)
	}
}

func TestHybridMostlyRReads(t *testing.T) {
	cfg := testConfig(t, "gcc", 100_000)
	r := mustRun(t, cfg, Hybrid())
	if r.RReads == 0 {
		t.Fatal("Hybrid issued no R-reads")
	}
	// Within the 640 s W=0 window, retry probability is astronomical-low.
	if r.RMReads > r.RReads/100 {
		t.Errorf("Hybrid R-M-reads %d suspiciously many vs %d R-reads", r.RMReads, r.RReads)
	}
	if r.SilentErrors > 0 {
		t.Errorf("silent errors within the W=0 window: %d", r.SilentErrors)
	}
	// W=0 scrubbing rewrites every visited line.
	if r.Mem.ScrubWrites == 0 || r.Mem.ScrubReads == 0 {
		t.Errorf("Hybrid scrub traffic missing: %+v", r.Mem)
	}
	if r.Mem.ScrubWrites < r.Mem.ScrubReads*9/10 {
		t.Errorf("W=0 scrub rewrote %d of %d visits", r.Mem.ScrubWrites, r.Mem.ScrubReads)
	}
}

func TestLWTScrubRarelyRewrites(t *testing.T) {
	cfg := testConfig(t, "gcc", 100_000)
	r := mustRun(t, cfg, LWT(4, true))
	if r.Mem.ScrubReads == 0 {
		t.Fatal("no scrub scans")
	}
	if r.Mem.ScrubWrites > r.Mem.ScrubReads/50 {
		t.Errorf("W=1 M-scrub rewrote %d of %d visits; should be negligible",
			r.Mem.ScrubWrites, r.Mem.ScrubReads)
	}
}

func TestTLCFootprintLargest(t *testing.T) {
	cfg := testConfig(t, "bzip2", 30_000)
	tlc := mustRun(t, cfg, TLC())
	lwtRes := mustRun(t, cfg, LWT(4, true))
	if tlc.AreaCellsPerLine <= lwtRes.AreaCellsPerLine {
		t.Errorf("TLC area %v not above LWT %v", tlc.AreaCellsPerLine, lwtRes.AreaCellsPerLine)
	}
}

func TestConfigValidation(t *testing.T) {
	b, _ := trace.ByName("gcc")
	bad := DefaultConfig(b)
	bad.EpochReads = 0
	if _, err := Run(bad, Ideal()); err == nil {
		t.Error("zero epoch accepted")
	}
	bad = DefaultConfig(b)
	bad.DiffDataCellFraction = 0
	if _, err := Run(bad, Ideal()); err == nil {
		t.Error("zero diff fraction accepted")
	}
	bad = DefaultConfig(b)
	bad.ParityCells = bad.Mem.CellsPerLine
	if _, err := Run(bad, Ideal()); err == nil {
		t.Error("parity >= cells accepted")
	}
	if _, err := Run(DefaultConfig(b), LWT(0, true)); err == nil {
		t.Error("invalid scheme accepted")
	}
}

func TestExecTimeScalesWithBudget(t *testing.T) {
	small := mustRun(t, testConfig(t, "hmmer", 20_000), Ideal())
	large := mustRun(t, testConfig(t, "hmmer", 80_000), Ideal())
	ratio := float64(large.ExecTime) / float64(small.ExecTime)
	if ratio < 3 || ratio > 5.5 {
		t.Errorf("4x budget gave %vx time", ratio)
	}
}

func TestWarmupWindowExcluded(t *testing.T) {
	// With warmup disabled the measured window covers everything, so its
	// instruction count must exceed the warmed run's.
	cfg := testConfig(t, "gcc", 60_000)
	warm := mustRun(t, cfg, LWT(4, true))
	cfg.WarmupFrac = 0
	cold := mustRun(t, cfg, LWT(4, true))
	if warm.Instructions >= cold.Instructions {
		t.Errorf("warmup did not shrink the window: %d vs %d", warm.Instructions, cold.Instructions)
	}
	if warm.ExecTime >= cold.ExecTime {
		t.Errorf("warmup did not shrink measured time: %v vs %v", warm.ExecTime, cold.ExecTime)
	}
	if cold.Instructions < 4*60_000 {
		t.Errorf("cold window missing instructions: %d", cold.Instructions)
	}
	bad := cfg
	bad.WarmupFrac = 1.0
	if _, err := Run(bad, Ideal()); err == nil {
		t.Error("warmup fraction 1.0 accepted")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{RReads: 60, MReads: 0, RMReads: 40, UntrackedReads: 40,
		Instructions: 4_000_000, ExecTime: time.Millisecond}
	if got := r.UntrackedFraction(); got != 0.4 {
		t.Errorf("UntrackedFraction = %v", got)
	}
	if got := (&Result{}).UntrackedFraction(); got != 0 {
		t.Errorf("empty UntrackedFraction = %v", got)
	}
	if ipc := r.IPC(2, 4); ipc <= 0 {
		t.Errorf("IPC = %v", ipc)
	}
}

// TestSoakAllSchemesAllBenchmarks is the long-haul integration sweep: every
// scheme on every workload at a modest budget must complete without error
// and produce internally consistent results.
func TestSoakAllSchemesAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	schemes := []Scheme{Ideal(), Scrubbing(), MMetric(), TLC(), Hybrid(), LWT(2, true), LWT(4, true), Select(4, 1), Select(4, 2)}
	for _, b := range trace.Benchmarks() {
		cfg := DefaultConfig(b)
		cfg.CPU.InstrBudget = 60_000
		for _, s := range schemes {
			r, err := Run(cfg, s)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, s.Name(), err)
			}
			if r.ExecTime <= 0 {
				t.Errorf("%s/%s: no time", b.Name, s.Name())
			}
			total := r.RReads + r.MReads + r.RMReads
			if total == 0 {
				t.Errorf("%s/%s: no reads", b.Name, s.Name())
			}
			if r.UntrackedReads > total {
				t.Errorf("%s/%s: untracked %d > reads %d", b.Name, s.Name(), r.UntrackedReads, total)
			}
			if r.Energy.Total() <= 0 || r.SystemEnergyPJ < r.Energy.Total() {
				t.Errorf("%s/%s: energy inconsistent: dyn %v sys %v",
					b.Name, s.Name(), r.Energy.Total(), r.SystemEnergyPJ)
			}
			if r.CellWrites == 0 {
				t.Errorf("%s/%s: no cell writes", b.Name, s.Name())
			}
			if !strings.HasPrefix(s.Spec(), "select") && r.DiffWrites != 0 {
				t.Errorf("%s/%s: differential writes outside Select", b.Name, s.Name())
			}
		}
	}
}
