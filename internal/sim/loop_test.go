package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"readduo/internal/cpu"
	"readduo/internal/dist"
	"readduo/internal/drift"
	"readduo/internal/telemetry"
	"readduo/internal/trace"
)

// tieSource gives every core a gap-0 script, so all four cores issue at
// the same picosecond whenever none is blocked. Every fifth record of core
// c (k%5 == c) waits 299 instructions instead: with the issue cycle that
// is 150 ns at 2 GHz, one R-read latency, so the core's next issue lands
// on the completion of a read it sent to an idle bank. Two records in
// three are writes, which keeps a two-slot write queue full.
type tieSource struct{ pos [4]int }

func (s *tieSource) Next(core int) (trace.Record, error) {
	k := s.pos[core]
	s.pos[core]++
	rec := trace.Record{Core: uint8(core), Write: k%3 != 0, Line: uint64(core*97 + k%61)}
	if k%5 == core {
		rec.Gap = 299
	}
	return rec, nil
}

// TestEventLoopTiesPinned pins the event loop's order at one timestamp:
// memory completions first, then write-queue retries, then core issues in
// core index order. One bank, a two-slot write queue and gap-0 records on
// four cores put completions, retries and issues on the same picosecond
// all through the run: issuing cores before completions, or in another
// order, moves every digest. (Completions resume read-blocked cores and
// retries re-arm write-stalled ones, so those two commute.) Each digest
// is the sha256 of one full Result's JSON.
func TestEventLoopTiesPinned(t *testing.T) {
	want := map[string]string{
		"Ideal":  "b6ac32a0ed429d492e1b2bc444aa8e21105dc7e70cc223cb554c49f4916db323",
		"Hybrid": "d3efff955b6f22577a74c754a53830135d66e3580397aa49272fe173460c5373",
		"LWT-4":  "5b58333b2b7dbdb836a4eed4260be45f11521b54d386e1fa3d943aa1bc7d57e1",
	}
	b, ok := trace.ByName("gcc")
	if !ok {
		t.Fatal("gcc benchmark missing")
	}
	for _, scheme := range []Scheme{Ideal(), Hybrid(), LWT(4, true)} {
		cfg := DefaultConfig(b)
		cfg.CPU.InstrBudget = 200_000
		cfg.Mem.Banks = 1
		cfg.Mem.WriteQueueCap, cfg.Mem.WriteDrainHi, cfg.Mem.WriteDrainLo = 2, 2, 1
		cfg.Source = &tieSource{}
		res, err := Run(cfg, scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme.Name(), err)
		}
		if got := resultDigest(t, res); got != want[scheme.Name()] {
			t.Errorf("%s: result digest %s, want %s", scheme.Name(), got, want[scheme.Name()])
		}
	}
}

// lockstepLoop is the event loop as it ran before bursts, kept as the
// reference TestBurstLoopMatchesLockstep holds the production loop to:
// one turn per instant, each asking both sides for their next deadline,
// advancing memory when it has an event due, re-arming stalled writers
// whenever time moved or a read completed, and stepping the cores. It
// counts its turns with tick, as the production loop counts its steps.
func (e *Engine) lockstepLoop(ctx context.Context) error {
	var now int64
	for {
		if err := e.tick(ctx); err != nil {
			return err
		}
		if e.cluster.AllDone() {
			return nil
		}
		tCPU, okCPU := e.cluster.NextActionAt()
		tMem, okMem := e.ctrl.NextEventAt()
		var t int64
		switch {
		case okCPU && okMem:
			t = min(tCPU, tMem)
		case okCPU:
			t = tCPU
		case okMem:
			t = tMem
		default:
			return fmt.Errorf("sim: deadlock: all cores blocked, memory idle")
		}
		if t < now {
			t = now
		}
		progressed := t > now
		now = t
		completed := false
		if okMem && tMem <= t {
			e.comps = e.ctrl.AdvanceTo(t, e.comps)
			for _, comp := range e.comps {
				if err := e.cluster.OnReadComplete(comp.ID, comp.At); err != nil {
					return err
				}
			}
			completed = len(e.comps) > 0
		}
		if progressed || completed {
			e.cluster.RetryAt(now)
		}
		if err := e.cluster.Step(now, e); err != nil {
			return err
		}
		if !e.warmupDone && e.cluster.TotalRetired() >= e.warmupInstr {
			e.mark(now)
		}
	}
}

// scriptSource is a tieSource drawn from a seed: gap-0 records on four
// cores, some of which wait one R-read latency (so the next issue lands
// on a completion) or a random gap instead, over a few lines per core,
// with the share of writes set by the seed.
type scriptSource struct {
	seed uint64
	pos  [4]uint64
}

func (s *scriptSource) Next(core int) (trace.Record, error) {
	k := s.pos[core]
	s.pos[core]++
	r := dist.Splitmix64(s.seed ^ uint64(core)<<56 ^ k)
	rec := trace.Record{
		Core:  uint8(core),
		Write: r&15 < 4+s.seed&7,
		Line:  uint64(core*97) + r>>8%61,
	}
	switch r >> 4 & 7 {
	case 0:
		rec.Gap = 299
	case 1:
		rec.Gap = uint32(r>>32) % 300
	}
	return rec, nil
}

// loopRun runs one job through loop (or lockstepLoop) on a fresh engine
// and returns its run digest (Result and telemetry counters) and steps.
func loopRun(t *testing.T, cfg Config, scheme Scheme, lockstep bool) (string, uint64) {
	t.Helper()
	cfg.Telemetry = telemetry.NewRegistry("loop")
	e := new(Engine)
	if err := e.init(cfg, scheme); err != nil {
		t.Fatal(err)
	}
	run := e.loop
	if lockstep {
		run = e.lockstepLoop
	}
	if err := run(context.Background()); err != nil {
		t.Fatalf("%s: %v", scheme.Name(), err)
	}
	return runDigest(t, e.result(), cfg.Telemetry), e.steps
}

// loopDesigns is every paper design, LWC-8 and a composition no spec
// names: tracked sensing with conversion over Select writes under a 64 s
// W=0 scrub, whose walker visits a line of a one-bank memory every
// 954 ns and rewrites it every time.
func loopDesigns() []Scheme {
	return append(AllSchemes(), LWC(8), Compose("tracked-select-w0", Design{
		Sense: SenseTracked, Write: WriteSelect, K: 4, S: 2, Convert: true,
		Scrub: Scrub{Interval: 64 * time.Second, Metric: drift.MetricM, W: 0}}))
}

// TestBurstLoopMatchesLockstep requires the burst loop to reproduce the
// lockstep reference exactly — every Result field, every telemetry
// count and the number of steps — over every paper design, LWC-8 and a
// composed design, on one and eight banks, with the default write queues
// and with two-slot queues that keep writers stalled, for gap-0 scripts
// that put completions, retries and issues on one picosecond and for a
// generator row.
func TestBurstLoopMatchesLockstep(t *testing.T) {
	b, ok := trace.ByName("lbm")
	if !ok {
		t.Fatal("lbm benchmark missing")
	}
	sources := []struct {
		name string
		new  func() cpu.Source
	}{
		{"ties", func() cpu.Source { return &tieSource{} }},
		{"script", func() cpu.Source { return &scriptSource{seed: 3} }},
		{"generator", func() cpu.Source { return nil }},
	}
	for _, scheme := range loopDesigns() {
		for _, banks := range []int{1, 8} {
			for _, twoSlot := range []bool{false, true} {
				for _, src := range sources {
					cfg := DefaultConfig(b)
					cfg.CPU.InstrBudget = 200_000
					cfg.Mem.Banks = banks
					if twoSlot {
						cfg.Mem.WriteQueueCap, cfg.Mem.WriteDrainHi, cfg.Mem.WriteDrainLo = 2, 2, 1
					}
					name := fmt.Sprintf("%s/banks=%d/two-slot=%v/%s", scheme.Name(), banks, twoSlot, src.name)
					cfg.Source = src.new()
					want, wantSteps := loopRun(t, cfg, scheme, true)
					cfg.Source = src.new()
					got, gotSteps := loopRun(t, cfg, scheme, false)
					if got != want || gotSteps != wantSteps {
						t.Errorf("%s: burst loop digest %s in %d steps, lockstep %s in %d",
							name, got, gotSteps, want, wantSteps)
					}
				}
			}
		}
	}
}

// FuzzBurstLoopMatchesLockstep compares the two loops on seeded scripts:
// the seed picks the script, the design and the bank count, queue the
// write-queue size (one to eight slots, drained from full to half).
func FuzzBurstLoopMatchesLockstep(f *testing.F) {
	f.Add(uint64(1), uint8(1))
	f.Add(uint64(2), uint8(63))
	f.Add(uint64(0x5eed), uint8(7))
	b, ok := trace.ByName("gcc")
	if !ok {
		f.Fatal("gcc benchmark missing")
	}
	designs := loopDesigns()
	f.Fuzz(func(t *testing.T, seed uint64, queue uint8) {
		cfg := DefaultConfig(b)
		cfg.CPU.InstrBudget = 20_000
		cfg.Mem.Banks = 1 + int(seed>>8&1)*7
		slots := 1 + int(queue%8)
		cfg.Mem.WriteQueueCap, cfg.Mem.WriteDrainHi, cfg.Mem.WriteDrainLo = slots, slots, slots/2
		scheme := designs[seed%uint64(len(designs))]
		cfg.Source = &scriptSource{seed: seed}
		want, wantSteps := loopRun(t, cfg, scheme, true)
		cfg.Source = &scriptSource{seed: seed}
		got, gotSteps := loopRun(t, cfg, scheme, false)
		if got != want || gotSteps != wantSteps {
			t.Errorf("%s, %d banks, %d slots: burst loop digest %s in %d steps, lockstep %s in %d",
				scheme.Name(), cfg.Mem.Banks, slots, got, gotSteps, want, wantSteps)
		}
	})
}

// cancellingSource is a single-core script of gap-0 writes that cancels
// its context when the engine fetches record n.
type cancellingSource struct {
	cancel context.CancelFunc
	n, pos int
}

func (s *cancellingSource) Next(core int) (trace.Record, error) {
	if s.pos++; s.pos == s.n {
		s.cancel()
	}
	return trace.Record{Write: true, Line: uint64(s.pos % 4096)}, nil
}

// TestCancelMidBurstReturnsWithinPoll cancels a run from inside a burst
// and requires the loop to return within one poll interval (8,192 steps)
// of the cancellation. One core issues gap-0 writes to one bank, into a
// write queue too deep to fill, with scrubbing off, so each write
// completion is followed by about 2,000 back-to-back issues: nearly every
// step is a burst's, and a loop that polled once per burst would run
// millions of steps before noticing. Each step issues at most one record,
// so the records drawn after the cancelling one bound the steps taken.
func TestCancelMidBurstReturnsWithinPoll(t *testing.T) {
	b, ok := trace.ByName("lbm")
	if !ok {
		t.Fatal("lbm benchmark missing")
	}
	cfg := DefaultConfig(b)
	cfg.CPU.Cores = 1
	cfg.CPU.InstrBudget = 200_000 // ends the run if the cancellation is missed
	cfg.Mem.Banks = 1
	cfg.Mem.WriteQueueCap, cfg.Mem.WriteDrainHi, cfg.Mem.WriteDrainLo = 1<<20, 1<<20, 1<<19
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancellingSource{cancel: cancel, n: 20_000}
	cfg.Source = src
	e := new(Engine)
	if err := e.init(cfg, Ideal()); err != nil {
		t.Fatal(err)
	}
	if err := e.loop(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("loop returned %v, want a cancellation", err)
	}
	if late := src.pos - src.n; late < 0 || late > cancelCheckMask+1 {
		t.Errorf("loop drew %d records after the cancelling one, want 0 to %d", late, cancelCheckMask+1)
	}
	if w := e.ctrl.Stats().Writes; w == 0 || uint64(src.pos) < 1000*w {
		t.Errorf("run drew %d records and completed %d writes: not the burst-heavy shape the test needs", src.pos, w)
	}
}

// TestLineStateOnlyWhereRead pins Design.readsLastWrite: designs that
// never read the per-line last full write (Ideal, TLC, and a composition
// with R sensing, no scrubbing and plain writes) end a run with the table
// empty, and every design that reads it still records into it.
func TestLineStateOnlyWhereRead(t *testing.T) {
	b, ok := trace.ByName("lbm")
	if !ok {
		t.Fatal("lbm benchmark missing")
	}
	cases := []struct {
		scheme Scheme
		empty  bool
	}{
		{Ideal(), true},
		{TLC(), true},
		{Compose("r-plain", Design{Sense: SenseR, Write: WritePlain}), true},
		{Scrubbing(), false},
		{MMetric(), false},
		{Hybrid(), false},
		{LWT(4, true), false},
		{Select(4, 2), false},
		{LWC(8), false},
	}
	for _, c := range cases {
		cfg := DefaultConfig(b)
		cfg.CPU.InstrBudget = 20_000
		e := new(Engine)
		if err := e.init(cfg, c.scheme); err != nil {
			t.Fatal(err)
		}
		if err := e.loop(context.Background()); err != nil {
			t.Fatalf("%s: %v", c.scheme.Name(), err)
		}
		if res := e.result(); res.FullWrites == 0 {
			t.Fatalf("%s: no full demand write in the run", c.scheme.Name())
		}
		if n := e.lastWrite.Len(); (n == 0) != c.empty {
			t.Errorf("%s: line table holds %d lines, want empty=%v", c.scheme.Name(), n, c.empty)
		}
	}
}
