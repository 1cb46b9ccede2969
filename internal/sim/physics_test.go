package sim

import (
	"reflect"
	"testing"

	"readduo/internal/drift"
	"readduo/internal/lwc"
	"readduo/internal/trace"
)

// The physics test sweep: closed-form-vs-engine differentials for the
// three model families (temperature, read disturb, LWC writes) plus the
// default-identity proof that temp=300 / disturb=0 leave every paper
// scheme's engine path bit-for-bit unchanged.

func physicsRun(t *testing.T, scheme Scheme, budget uint64) *Result {
	t.Helper()
	b, ok := trace.ByName("gcc")
	if !ok {
		t.Fatal("gcc benchmark missing")
	}
	cfg := DefaultConfig(b)
	cfg.CPU.InstrBudget = budget
	cfg.Seed = 1
	res, err := Run(cfg, scheme)
	if err != nil {
		t.Fatalf("Run(%s): %v", scheme.Name(), err)
	}
	return res
}

// TestDefaultEnvBitIdentical is the tentpole's identity half: forcing the
// explicit defaults (temp=300, no disturb channel) onto every paper
// scheme — bypassing Parse normalization by writing the Design field
// directly — must reproduce the default run bit-for-bit. Together with
// the untouched golden_schemes.json this proves the physics plumbing is
// invisible until a spec opts in.
func TestDefaultEnvBitIdentical(t *testing.T) {
	schemes := []Scheme{
		Ideal(), Scrubbing(), MMetric(), TLC(), Hybrid(), LWT(4, true),
		Select(4, 2), LWC(8),
	}
	for _, base := range schemes {
		want := physicsRun(t, base, 8_000)
		forced := base
		forced.Design.Env = Environment{TempK: drift.DefaultTempK}
		got := physicsRun(t, forced, 8_000)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: forcing temp=300 changed the run:\n got: %+v\nwant: %+v",
				base.Name(), got, want)
		}
	}
}

// TestEngineDisturbMonotone drives the read-disturb channel end to end:
// under W=1 scrubbing, accumulated reads raise the rewrite probability at
// every scrub visit, so scrub write traffic is monotone non-decreasing in
// the disturb rate, and at the channel ceiling the latched errors must
// both force rewrites and surface silent errors past BCH detection.
func TestEngineDisturbMonotone(t *testing.T) {
	base := Scrubbing()
	prevScrubCells := uint64(0)
	var results []*Result
	for _, d := range []float64{0, 0.01, drift.MaxDisturb} {
		s := base
		if d > 0 {
			var err error
			s, err = base.AtEnv(Environment{Disturb: d})
			if err != nil {
				t.Fatal(err)
			}
		}
		r := physicsRun(t, s, 60_000)
		if r.Mem.ScrubWriteCells < prevScrubCells {
			t.Errorf("disturb=%v: scrub write cells fell to %d (prev %d)",
				d, r.Mem.ScrubWriteCells, prevScrubCells)
		}
		prevScrubCells = r.Mem.ScrubWriteCells
		results = append(results, r)
	}
	zero, max := results[0], results[len(results)-1]
	if max.Mem.ScrubWriteCells <= zero.Mem.ScrubWriteCells {
		t.Errorf("disturb ceiling did not raise scrub traffic: %d vs %d",
			max.Mem.ScrubWriteCells, zero.Mem.ScrubWriteCells)
	}
	if zero.SilentErrors != 0 {
		t.Errorf("disturb-free Scrubbing reported %d silent errors", zero.SilentErrors)
	}
	if max.SilentErrors == 0 {
		t.Error("disturb ceiling produced no silent errors past BCH detection")
	}
}

// TestDisturbClosedFormMonotone pins the channel's closed form on the
// reliability axis the engine draws from: accumulated-read error
// probability monotone in both rate and read count (satellite property).
func TestDisturbClosedFormMonotone(t *testing.T) {
	prev := -1.0
	for _, d := range []float64{0, 1e-6, 1e-4, 1e-2, drift.MaxDisturb} {
		ch := drift.DisturbChannel{PerRead: d}
		if err := ch.Validate(); err != nil {
			t.Fatalf("disturb=%v: %v", d, err)
		}
		p := ch.CellErrorProb(256)
		if p < prev {
			t.Errorf("cell error prob fell to %v at disturb=%v", p, d)
		}
		prev = p
	}
}

// TestTempScalingEngineConfigs checks the engine-facing contract of the
// temperature model: at the default 300 K the metric configs are equal as
// Go values (so the drift probability memo keys collide with today's and
// no cache entry splits), while any other temperature yields a distinct,
// still-valid config.
func TestTempScalingEngineConfigs(t *testing.T) {
	if drift.RMetricConfigAt(drift.DefaultTempK) != drift.RMetricConfig() {
		t.Error("R config at 300K is not value-identical to the default")
	}
	if drift.MMetricConfigAt(drift.DefaultTempK) != drift.MMetricConfig() {
		t.Error("M config at 300K is not value-identical to the default")
	}
	hot := drift.RMetricConfigAt(350)
	if hot == drift.RMetricConfig() {
		t.Error("350K config did not change the drift parameters")
	}
	if err := hot.Validate(); err != nil {
		t.Errorf("350K config invalid: %v", err)
	}
}

// TestLWCPlanMatchesClosedForm is the LWC differential: the engine's
// deterministic write plan must equal lwc.ExpectedUpdateCost at the
// engine's geometry — first touch programs the full line (data + BCH
// parity + local parities), later writes the closed-form local cost.
func TestLWCPlanMatchesClosedForm(t *testing.T) {
	b, ok := trace.ByName("gcc")
	if !ok {
		t.Fatal("gcc benchmark missing")
	}
	cfg := DefaultConfig(b)
	for _, r := range []int{2, 8, 16, 64} {
		e, err := newEngine(cfg, LWC(r))
		if err != nil {
			t.Fatal(err)
		}
		lineCells := LWC(r).lineCells(cfg)
		const phys = 42
		cells, full := e.planWrite(0, phys)
		if !full || cells != lineCells {
			t.Errorf("r=%d: first touch planned (%d, %v), want full %d cells",
				r, cells, full, lineCells)
		}
		e.lastWrite.Put(phys, 0)
		cells, full = e.planWrite(1, phys)
		dataCells := cfg.Mem.CellsPerLine - cfg.ParityCells
		want, err := lwc.ExpectedUpdateCost(dataCells, r, cfg.DiffDataCellFraction)
		if err != nil {
			t.Fatal(err)
		}
		if full || cells != int(want) {
			t.Errorf("r=%d: local rewrite planned (%d, %v), want (%d, false)",
				r, cells, full, int(want))
		}
		if cells >= lineCells {
			t.Errorf("r=%d: local rewrite %d cells is no cheaper than the %d-cell line",
				r, cells, lineCells)
		}
	}
}

// TestLWCRunWearLedger runs LWC through the whole simulator and audits
// the wear ledger against the closed form: every demand write is either a
// first touch programming the full line (data + BCH parity + local
// parities) or a local rewrite at exactly the lwc.ExpectedUpdateCost
// geometry, and the local rewrites are cheaper than the full-write
// baseline's lines.
func TestLWCRunWearLedger(t *testing.T) {
	baseline := physicsRun(t, Scrubbing(), 60_000)
	lwcRes := physicsRun(t, LWC(16), 60_000)
	if lwcRes.FullWrites == 0 {
		t.Fatal("LWC run recorded no first-touch writes")
	}
	if lwcRes.DiffWrites == 0 {
		t.Fatal("LWC run recorded no local rewrites; budget too small to exercise the policy")
	}
	b, _ := trace.ByName("gcc")
	cfg := DefaultConfig(b)
	lineCells := LWC(16).lineCells(cfg)
	dataCells := cfg.Mem.CellsPerLine - cfg.ParityCells
	localCost, err := lwc.ExpectedUpdateCost(dataCells, 16, cfg.DiffDataCellFraction)
	if err != nil {
		t.Fatal(err)
	}
	// Every completed demand write programmed either the full line or the
	// closed-form local cost; warmup-enqueued writes completing inside the
	// measurement window mean Mem.Writes can exceed FullWrites+DiffWrites,
	// so solve the two-size decomposition instead of using the post-warmup
	// counters directly.
	local := uint64(int(localCost))
	num := lwcRes.Mem.WriteCells - lwcRes.Mem.Writes*local
	den := uint64(lineCells) - local
	if num%den != 0 {
		t.Fatalf("wear ledger %d cells over %d writes is not a mix of %d-cell and %d-cell programs",
			lwcRes.Mem.WriteCells, lwcRes.Mem.Writes, lineCells, local)
	}
	fulls := num / den
	if fulls > lwcRes.Mem.Writes || fulls < lwcRes.FullWrites ||
		lwcRes.Mem.Writes-fulls < lwcRes.DiffWrites {
		t.Errorf("ledger decomposition %d full + %d local inconsistent with counters (full=%d diff=%d)",
			fulls, lwcRes.Mem.Writes-fulls, lwcRes.FullWrites, lwcRes.DiffWrites)
	}
	basePerWrite := float64(baseline.Mem.WriteCells) / float64(baseline.Mem.Writes)
	if localCost >= basePerWrite {
		t.Errorf("LWC local rewrite %.1f cells did not beat the %.1f-cell full write",
			localCost, basePerWrite)
	}
}
