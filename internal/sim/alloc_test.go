package sim

import (
	"context"
	"runtime"
	"testing"

	"readduo/internal/memctrl"
	"readduo/internal/trace"
)

// The hot-path contract: once the simulation reaches steady state, the
// engine's demand read/write dispatch and the controller's event
// processing allocate nothing. Run-time allocation was ~35% of simulated
// time before the linetable/ring-queue/value-inflight overhaul; these
// tests keep it at zero.

// steadyEngine assembles an engine (Scrubbing: exercises the scrub
// walker, probability lookups, and the line table; no converter map) and
// warms the hot structures: the line table past growth for the touched
// working set, the bank ring buffers past their first doublings, and the
// completion scratch.
func steadyEngine(t *testing.T) (*Engine, []memctrl.Completion, func(i int) uint64) {
	t.Helper()
	b, ok := trace.ByName("gcc")
	if !ok {
		t.Fatal("gcc benchmark missing")
	}
	cfg := DefaultConfig(b)
	cfg.CPU.InstrBudget = 10_000
	cfg.Seed = 1
	e, err := newEngine(cfg, Scrubbing())
	if err != nil {
		t.Fatal(err)
	}
	line := func(i int) uint64 { return uint64(i % 4096) }
	var scratch []memctrl.Completion
	now := int64(0)
	for i := 0; i < 20_000; i++ {
		if _, err := e.Read(now, i%4, line(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Write(now, i%4, line(i*7)); err != nil {
			t.Fatal(err)
		}
		now += 200_000 // 200 ns: past the read latency, drains queues
		scratch = e.ctrl.AdvanceTo(now, scratch)
	}
	return e, scratch, line
}

func TestSteadyStateReadWriteZeroAlloc(t *testing.T) {
	e, scratch, line := steadyEngine(t)
	now := e.ctrl.Now()
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := e.Read(now, i%4, line(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Write(now, i%4, line(i*7)); err != nil {
			t.Fatal(err)
		}
		now += 200_000
		scratch = e.ctrl.AdvanceTo(now, scratch)
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state read/write/advance cycle allocates %.1f times per op, want 0", allocs)
	}
}

func TestAdvanceToZeroAlloc(t *testing.T) {
	e, scratch, line := steadyEngine(t)
	now := e.ctrl.Now()
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		// Keep work in flight so AdvanceTo processes completions and
		// scrub arrivals rather than fast-pathing an idle controller.
		if _, err := e.Read(now, 0, line(i)); err != nil {
			t.Fatal(err)
		}
		now += 150_000
		scratch = e.ctrl.AdvanceTo(now, scratch)
		i++
	})
	if allocs != 0 {
		t.Errorf("Controller.AdvanceTo allocates %.1f times per call, want 0", allocs)
	}
}

// TestNewEngineAllocationBudget pins the cost of building an engine for a
// sweep-sized job, where construction outweighs the simulation, on both
// of its paths. Once a first run has filled the process-wide memos
// (probability tables and seeded sources):
//
//   - an engine built from nothing copies its five seeded sources into
//     sources of its own, starts with empty queues, cluster and line
//     table, and takes each core's first 64-record tape block when the
//     cluster fetches its first access: 34,816 B on a 2-vCPU Xeon with
//     Go 1.24, bounded at 64 KiB.
//     No pool is involved, so this bound also holds under the race
//     detector.
//   - a warm Run of the same gcc x LWT-4 25k-instruction job rebuilds the
//     engine enginePool holds from the last job, CPU cluster included, and
//     replays its generator tape, so what remains is the energy
//     accounting, the converter and the Result: 448 B in 3 allocations
//     per run, bounded at 1.5 KiB (3.4x), about the headroom the 4 KiB
//     bound gave the 1,280 B a run allocated while each job built its own
//     cluster (3.2x). Warm Runs that alternate two rows (gcc and hmmer)
//     re-seed the tape into the capacity it kept, and are held to the
//     same bound: 448 B. The bound allows a GC emptying the pool (one
//     fresh engine in the 100 runs costs about 0.5 KB a run). Under the
//     race detector sync.Pool drops a quarter of its Puts on purpose, so
//     this bound is not checked there.
//   - so is a warm rerun of a long lbm job (200k instructions, about
//     2.1K records per core in seven tape blocks) on an engine the test
//     recycles itself, as RunContext does but without the pool, because
//     one fresh engine for a row this long (its line table and tape
//     alone are over 300 KB) would pass the bound: once the row's blocks
//     exist the rerun rewinds them and allocates no tape storage: 448 B.
func TestNewEngineAllocationBudget(t *testing.T) {
	b, ok := trace.ByName("gcc")
	if !ok {
		t.Fatal("gcc benchmark missing")
	}
	cfg := DefaultConfig(b)
	cfg.CPU.InstrBudget = 25_000
	scheme := LWT(4, true)
	if b, ok = trace.ByName("hmmer"); !ok {
		t.Fatal("hmmer benchmark missing")
	}
	other := cfg
	other.Bench = b
	for _, c := range []Config{other, cfg} {
		if _, err := Run(c, scheme); err != nil {
			t.Fatal(err)
		}
	}
	const n = 100
	perOp := func(op func() error) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}

	const coldBudget = 64 << 10
	if cold := perOp(func() error { return new(Engine).init(cfg, scheme) }); cold >= coldBudget {
		t.Errorf("an engine built from nothing allocates %d bytes, want < %d", cold, coldBudget)
	}
	if raceEnabled {
		return
	}
	const warmBudget = 1536
	warm := perOp(func() error {
		_, err := Run(cfg, scheme)
		return err
	})
	if warm >= warmBudget {
		t.Errorf("a warm Run allocates %d bytes, want < %d", warm, warmBudget)
	}
	rows := [2]Config{other, cfg}
	i := 0
	alternating := perOp(func() error {
		i++
		_, err := Run(rows[i%2], scheme)
		return err
	})
	if alternating >= warmBudget {
		t.Errorf("a warm Run alternating two rows allocates %d bytes, want < %d", alternating, warmBudget)
	}
	long := cfg
	if long.Bench, ok = trace.ByName("lbm"); !ok {
		t.Fatal("lbm benchmark missing")
	}
	long.CPU.InstrBudget = 200_000
	e := new(Engine)
	runLong := func() error {
		if err := e.init(long, scheme); err != nil {
			return err
		}
		if err := e.loop(context.Background()); err != nil {
			return err
		}
		e.result()
		e.empty()
		return nil
	}
	if err := runLong(); err != nil {
		t.Fatal(err)
	}
	if rerun := perOp(runLong); rerun >= warmBudget {
		t.Errorf("a warm rerun of a long row allocates %d bytes, want < %d", rerun, warmBudget)
	}
}
