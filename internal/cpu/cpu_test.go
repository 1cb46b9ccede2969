package cpu

import (
	"slices"
	"testing"

	"readduo/internal/trace"
)

// scriptSource replays a fixed per-core script.
type scriptSource struct {
	recs map[int][]trace.Record
	pos  map[int]int
}

func newScript(recs map[int][]trace.Record) *scriptSource {
	return &scriptSource{recs: recs, pos: map[int]int{}}
}

func (s *scriptSource) Next(core int) (trace.Record, error) {
	rs := s.recs[core]
	p := s.pos[core]
	if p >= len(rs) {
		// Loop the script; budget terminates the run.
		p = 0
	}
	s.pos[core] = p + 1
	return rs[p], nil
}

// fakeMem services reads with a fixed latency, tracked so the test can
// drive completions manually.
type fakeMem struct {
	nextID    uint64
	latencyPS int64
	pending   []struct {
		id uint64
		at int64
	}
	writeOK       bool
	reads, writes int
}

func (m *fakeMem) Read(now int64, core int, line uint64) (uint64, error) {
	m.nextID++
	m.reads++
	m.pending = append(m.pending, struct {
		id uint64
		at int64
	}{m.nextID, now + m.latencyPS})
	return m.nextID, nil
}

func (m *fakeMem) Write(now int64, core int, line uint64) (bool, error) {
	if !m.writeOK {
		return false, nil
	}
	m.writes++
	return true, nil
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.FreqGHz = 0 },
		func(c *Config) { c.InstrBudget = 0 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Error("bad config accepted")
		}
	}
}

func TestSingleCoreReadBlocks(t *testing.T) {
	src := newScript(map[int][]trace.Record{
		0: {{Core: 0, Write: false, Line: 1, Gap: 10}},
	})
	cfg := Config{Cores: 1, FreqGHz: 2, InstrBudget: 22, MLP: 1}
	cl, err := NewCluster(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	mem := &fakeMem{latencyPS: 150_000, writeOK: true}

	// First action: after 10 gap instructions plus the load's own cycle
	// at 500 ps = 5500 ps.
	at, ok := cl.NextActionAt()
	if !ok || at != 5500 {
		t.Fatalf("NextActionAt = %d,%v, want 5500", at, ok)
	}
	if err := cl.Step(at, mem); err != nil {
		t.Fatal(err)
	}
	if mem.reads != 1 {
		t.Fatalf("reads = %d", mem.reads)
	}
	// Core is blocked on its read: no next action, though it is not done
	// and a read-only script never stalls on the write queue.
	if _, ok := cl.NextActionAt(); ok || cl.AllDone() {
		t.Fatalf("blocked core: NextActionAt ok = %v, AllDone = %v, want false, false", ok, cl.AllDone())
	}
	// Complete the read at 5500+150000.
	if err := cl.OnReadComplete(1, 155_500); err != nil {
		t.Fatal(err)
	}
	// Second record (same script looped): issues at 155500 + 5500.
	at, ok = cl.NextActionAt()
	if !ok || at != 161_000 {
		t.Fatalf("resume action at %d,%v, want 161000", at, ok)
	}
	if err := cl.Step(at, mem); err != nil {
		t.Fatal(err)
	}
	if err := cl.OnReadComplete(2, 311_000); err != nil {
		t.Fatal(err)
	}
	// Budget of 22 = two records (11 each); core should be done.
	if !cl.AllDone() {
		t.Fatal("core not done after budget")
	}
	if got := cl.FinishTime(); got != 311_000 {
		t.Errorf("FinishTime = %d", got)
	}
	st := cl.Stats()[0]
	if st.Reads != 2 || st.Retired < 22 || !st.Done {
		t.Errorf("stats %+v", st)
	}
}

func TestWritesDoNotBlock(t *testing.T) {
	src := newScript(map[int][]trace.Record{
		0: {{Core: 0, Write: true, Line: 3, Gap: 4}},
	})
	cfg := Config{Cores: 1, FreqGHz: 2, InstrBudget: 15, MLP: 1}
	cl, err := NewCluster(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	mem := &fakeMem{writeOK: true}
	for !cl.AllDone() {
		at, ok := cl.NextActionAt()
		if !ok {
			t.Fatal("deadlock")
		}
		if err := cl.Step(at, mem); err != nil {
			t.Fatal(err)
		}
	}
	// Three writes of (4+1) instructions hit the budget of 15; no read
	// stalls, so finish time is pure compute: 15 instructions * 500 ps.
	if mem.writes != 3 {
		t.Errorf("writes = %d, want 3", mem.writes)
	}
	if got := cl.FinishTime(); got != 15*500 {
		t.Errorf("FinishTime = %d, want %d", got, 15*500)
	}
}

func TestWriteBackpressureStallsAndRetries(t *testing.T) {
	src := newScript(map[int][]trace.Record{
		0: {{Core: 0, Write: true, Line: 3, Gap: 0}},
	})
	cfg := Config{Cores: 1, FreqGHz: 2, InstrBudget: 2, MLP: 1}
	cl, err := NewCluster(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	mem := &fakeMem{writeOK: false}
	at, _ := cl.NextActionAt()
	if err := cl.Step(at, mem); err != nil {
		t.Fatal(err)
	}
	if cl.AllDone() {
		t.Fatal("core done despite rejected write")
	}
	if cl.stalledWrites != 1 {
		t.Fatalf("stalledWrites = %d, want 1", cl.stalledWrites)
	}
	// A stalled core must not propose an action — that would livelock the
	// event loop at a frozen timestamp.
	if at, ok := cl.NextActionAt(); ok {
		t.Fatalf("stalled core proposed action at %d", at)
	}
	// Memory drains at t=9000: the engine re-arms stalled cores and steps.
	mem.writeOK = true
	cl.RetryAt(9000)
	if err := cl.Step(9000, mem); err != nil {
		t.Fatal(err)
	}
	if mem.writes != 1 {
		t.Errorf("writes = %d after retry", mem.writes)
	}
	if cl.stalledWrites != 0 {
		t.Errorf("stalledWrites = %d after successful retry, want 0", cl.stalledWrites)
	}
}

func TestMultiCoreIndependence(t *testing.T) {
	src := newScript(map[int][]trace.Record{
		0: {{Core: 0, Write: true, Line: 0, Gap: 2}},
		1: {{Core: 1, Write: true, Line: 1, Gap: 7}},
	})
	cfg := Config{Cores: 2, FreqGHz: 2, InstrBudget: 100, MLP: 1}
	cl, err := NewCluster(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	mem := &fakeMem{writeOK: true}
	for !cl.AllDone() {
		at, ok := cl.NextActionAt()
		if !ok {
			t.Fatal("deadlock")
		}
		if err := cl.Step(at, mem); err != nil {
			t.Fatal(err)
		}
	}
	st := cl.Stats()
	if st[0].Writes <= st[1].Writes {
		t.Errorf("core 0 (gap 2) wrote %d, core 1 (gap 7) wrote %d; want core0 > core1",
			st[0].Writes, st[1].Writes)
	}
}

func TestUnknownCompletionRejected(t *testing.T) {
	src := newScript(map[int][]trace.Record{0: {{Gap: 1}}})
	cl, err := NewCluster(Config{Cores: 1, FreqGHz: 2, InstrBudget: 10, MLP: 1}, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.OnReadComplete(99, 0); err == nil {
		t.Error("unknown completion accepted")
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(DefaultConfig(), nil); err == nil {
		t.Error("nil source accepted")
	}
	bad := DefaultConfig()
	bad.Cores = 0
	if _, err := NewCluster(bad, newScript(map[int][]trace.Record{})); err == nil {
		t.Error("bad config accepted")
	}
}

func TestMLPOverlapsReads(t *testing.T) {
	// With MLP 2, two reads issue back-to-back before the core stalls;
	// with MLP 1 the second waits for the first completion.
	script := map[int][]trace.Record{
		0: {{Core: 0, Write: false, Line: 1, Gap: 0}},
	}
	run := func(mlp int) (issued int) {
		cl, err := NewCluster(Config{Cores: 1, FreqGHz: 2, InstrBudget: 100, MLP: mlp}, newScript(script))
		if err != nil {
			t.Fatal(err)
		}
		mem := &fakeMem{latencyPS: 1_000_000, writeOK: true}
		// Drive only CPU-side actions (never complete any read).
		for {
			at, ok := cl.NextActionAt()
			if !ok {
				break
			}
			if err := cl.Step(at, mem); err != nil {
				t.Fatal(err)
			}
		}
		return mem.reads
	}
	if got := run(1); got != 1 {
		t.Errorf("MLP=1 issued %d reads before stalling, want 1", got)
	}
	if got := run(4); got != 4 {
		t.Errorf("MLP=4 issued %d reads before stalling, want 4", got)
	}
}

func TestMLPCompletionResumesWindow(t *testing.T) {
	script := map[int][]trace.Record{
		0: {{Core: 0, Write: false, Line: 1, Gap: 0}},
	}
	cl, err := NewCluster(Config{Cores: 1, FreqGHz: 2, InstrBudget: 100, MLP: 2}, newScript(script))
	if err != nil {
		t.Fatal(err)
	}
	mem := &fakeMem{latencyPS: 1_000_000, writeOK: true}
	for {
		at, ok := cl.NextActionAt()
		if !ok {
			break
		}
		if err := cl.Step(at, mem); err != nil {
			t.Fatal(err)
		}
	}
	if mem.reads != 2 {
		t.Fatalf("window did not fill: %d reads", mem.reads)
	}
	// Completing one read opens a slot: exactly one more read issues.
	if err := cl.OnReadComplete(1, 2_000_000); err != nil {
		t.Fatal(err)
	}
	for {
		at, ok := cl.NextActionAt()
		if !ok {
			break
		}
		if err := cl.Step(at, mem); err != nil {
			t.Fatal(err)
		}
	}
	if mem.reads != 3 {
		t.Errorf("after one completion %d reads, want 3", mem.reads)
	}
}

// ringMem is a MemPort that never allocates: read ids are sequential,
// outstanding reads wait in a fixed ring, and every fourth write finds
// the write queue full.
type ringMem struct {
	nextID  uint64
	ring    [64]uint64
	head, n int
	writes  int
}

func (m *ringMem) Read(now int64, core int, line uint64) (uint64, error) {
	m.nextID++
	m.ring[(m.head+m.n)%len(m.ring)] = m.nextID
	m.n++
	return m.nextID, nil
}

func (m *ringMem) Write(now int64, core int, line uint64) (bool, error) {
	m.writes++
	return m.writes%4 != 0, nil
}

// TestClusterSteadyStateZeroAlloc is the cluster's half of the hot-path
// contract (the engine's half is internal/sim's
// TestSteadyStateReadWriteZeroAlloc): once warm, an event step of
// completions, write retries and issues allocates nothing.
func TestClusterSteadyStateZeroAlloc(t *testing.T) {
	src := newScript(map[int][]trace.Record{
		0: {{Line: 1}, {Write: true, Line: 2, Gap: 3}, {Line: 3, Gap: 1}},
		1: {{Write: true, Line: 4}, {Line: 5, Gap: 2}},
		2: {{Line: 6, Gap: 5}, {Line: 7}, {Write: true, Line: 8}},
		3: {{Write: true, Line: 9, Gap: 1}, {Write: true, Line: 10}, {Line: 11}},
	})
	cl, err := NewCluster(Config{Cores: 4, FreqGHz: 2, InstrBudget: 1 << 40, MLP: 4}, src)
	if err != nil {
		t.Fatal(err)
	}
	mem := &ringMem{}
	now := int64(0)
	// One step retires the oldest outstanding read, re-arms stalled
	// writers and issues every core due, as the simulator's loop does.
	step := func() {
		if mem.n > 0 {
			id := mem.ring[mem.head]
			mem.head, mem.n = (mem.head+1)%len(mem.ring), mem.n-1
			if err := cl.OnReadComplete(id, now); err != nil {
				t.Fatal(err)
			}
		}
		cl.RetryAt(now)
		if at, ok := cl.NextActionAt(); ok {
			now = max(now, at)
		}
		if err := cl.Step(now, mem); err != nil {
			t.Fatal(err)
		}
		now += 500
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	reads, writes := mem.nextID, mem.writes
	if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
		t.Errorf("steady-state cluster step allocates %.1f times per call, want 0", allocs)
	}
	if mem.nextID == reads || mem.writes-writes < 4 {
		t.Fatalf("measured steps issued %d reads and %d writes, want reads and at least one refused write",
			mem.nextID-reads, mem.writes-writes)
	}
}

// orderMem records the core of every access, accepting all of them.
type orderMem struct {
	nextID uint64
	cores  []int
}

func (m *orderMem) Read(now int64, core int, line uint64) (uint64, error) {
	m.nextID++
	m.cores = append(m.cores, core)
	return m.nextID, nil
}

func (m *orderMem) Write(now int64, core int, line uint64) (bool, error) {
	m.cores = append(m.cores, core)
	return true, nil
}

// TestStepIssuesDueCoresInIndexOrder runs more cores than one 64-bit due
// mask holds: at each step, exactly the cores due then must issue, once
// each, in index order across the mask blocks. Core i waits i%3 cycles
// between its writes, so the due set changes from step to step.
func TestStepIssuesDueCoresInIndexOrder(t *testing.T) {
	const cores = 130
	recs := map[int][]trace.Record{}
	for i := 0; i < cores; i++ {
		recs[i] = []trace.Record{{Core: uint8(i), Write: true, Line: uint64(i), Gap: uint32(i % 3)}}
	}
	cl, err := NewCluster(Config{Cores: cores, FreqGHz: 2, InstrBudget: 1 << 20, MLP: 4}, newScript(recs))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 12; step++ {
		now, ok := cl.NextActionAt()
		if !ok {
			t.Fatal("no core wants to act")
		}
		var want []int
		for i, at := range cl.runAt {
			if at <= now {
				want = append(want, i)
			}
		}
		mem := &orderMem{}
		if err := cl.Step(now, mem); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(mem.cores, want) {
			t.Fatalf("step %d at %d ps issued cores %v, want %v", step, now, mem.cores, want)
		}
	}
}

// cycleSource cycles each core through its own records, without the
// map lookups of scriptSource.
type cycleSource struct {
	recs [][]trace.Record
	pos  []int
}

func (s *cycleSource) Next(core int) (trace.Record, error) {
	rs := s.recs[core]
	r := rs[s.pos[core]%len(rs)]
	s.pos[core]++
	return r, nil
}

// BenchmarkClusterStep times one event step of four cores as the
// simulator's loop takes it: a read completion, write retries and the
// issues of every core due, with reads, accepted writes and refused ones.
func BenchmarkClusterStep(b *testing.B) {
	src := &cycleSource{recs: [][]trace.Record{
		{{Line: 1}, {Write: true, Line: 2, Gap: 3}, {Line: 3, Gap: 1}},
		{{Write: true, Line: 4}, {Line: 5, Gap: 2}},
		{{Line: 6, Gap: 5}, {Line: 7}, {Write: true, Line: 8}},
		{{Write: true, Line: 9, Gap: 1}, {Write: true, Line: 10}, {Line: 11}},
	}, pos: make([]int, 4)}
	cl, err := NewCluster(Config{Cores: 4, FreqGHz: 2, InstrBudget: 1 << 62, MLP: 4}, src)
	if err != nil {
		b.Fatal(err)
	}
	mem := &ringMem{}
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mem.n > 0 {
			id := mem.ring[mem.head]
			mem.head, mem.n = (mem.head+1)%len(mem.ring), mem.n-1
			if err := cl.OnReadComplete(id, now); err != nil {
				b.Fatal(err)
			}
		}
		cl.RetryAt(now)
		if at, ok := cl.NextActionAt(); ok {
			now = max(now, at)
		}
		if err := cl.Step(now, mem); err != nil {
			b.Fatal(err)
		}
		now += 500
	}
}
