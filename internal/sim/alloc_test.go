package sim

import (
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
// sweep-sized job, where construction outweighs the simulation. Once a
// first run has filled the process-wide memos (probability tables and
// seeded sources), an engine copies its five seeded sources and starts
// with an empty line table.
func TestNewEngineAllocationBudget(t *testing.T) {
	b, ok := trace.ByName("gcc")
	if !ok {
		t.Fatal("gcc benchmark missing")
	}
	cfg := DefaultConfig(b)
	cfg.CPU.InstrBudget = 25_000
	scheme := LWT(4, true)
	if _, err := Run(cfg, scheme); err != nil {
		t.Fatal(err)
	}
	const engines = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < engines; i++ {
		if _, err := newEngine(cfg, scheme); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perEngine := (after.TotalAlloc - before.TotalAlloc) / engines
	if perEngine >= 64<<10 {
		t.Errorf("newEngine allocates %d bytes per engine, want < %d", perEngine, 64<<10)
	}
}
