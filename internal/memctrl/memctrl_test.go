package memctrl

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"readduo/internal/energy"
	"readduo/internal/sense"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Banks = 2
	cfg.TotalLines = 1 << 16
	return cfg
}

func mustController(t *testing.T, cfg Config, hook ScrubHook) (*Controller, *energy.Accounting) {
	t.Helper()
	acct, err := energy.NewAccounting(energy.DefaultParams())
	if err != nil {
		t.Fatalf("NewAccounting: %v", err)
	}
	c, err := NewController(cfg, acct, hook)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return c, acct
}

type fixedScrub struct {
	act   ScrubAction
	calls int
	lines []uint64
}

func (f *fixedScrub) OnScrub(now int64, line uint64) ScrubAction {
	f.calls++
	if len(f.lines) < 64 {
		f.lines = append(f.lines, line)
	}
	return f.act
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"no banks", func(c *Config) { c.Banks = 0 }},
		{"tiny memory", func(c *Config) { c.TotalLines = 2; c.Banks = 8 }},
		{"bad timing", func(c *Config) { c.Timing.RRead = 0 }},
		{"no cells", func(c *Config) { c.CellsPerLine = 0 }},
		{"bad thresholds", func(c *Config) { c.WriteDrainLo = c.WriteDrainHi }},
		{"bad cancel", func(c *Config) { c.CancelThreshold = 1.5 }},
		{"negative scrub", func(c *Config) { c.ScrubInterval = -time.Second }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("bad config accepted")
			}
		})
	}
}

func TestNewControllerRequiresHookWithScrub(t *testing.T) {
	cfg := testConfig()
	cfg.ScrubInterval = time.Second
	acct, err := energy.NewAccounting(energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewController(cfg, acct, nil); err == nil {
		t.Error("scrubbing without hook accepted")
	}
	if _, err := NewController(testConfig(), nil, nil); err == nil {
		t.Error("nil accounting accepted")
	}
}

func TestSingleReadLatency(t *testing.T) {
	c, _ := mustController(t, testConfig(), nil)
	if err := c.EnqueueRead(0, 1, 0, sense.ModeR); err != nil {
		t.Fatalf("EnqueueRead: %v", err)
	}
	comps := c.AdvanceTo(PS(time.Millisecond), nil)
	if len(comps) != 1 {
		t.Fatalf("completions = %d, want 1", len(comps))
	}
	if comps[0].ID != 1 {
		t.Errorf("completion id = %d", comps[0].ID)
	}
	if want := PS(150 * time.Nanosecond); comps[0].At != want {
		t.Errorf("R-read completes at %d ps, want %d", comps[0].At, want)
	}
	st := c.Stats()
	if st.Reads != 1 || st.ReadsByMode[sense.ModeR] != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestReadModesLatencies(t *testing.T) {
	tests := []struct {
		mode sense.Mode
		want time.Duration
	}{
		{sense.ModeR, 150 * time.Nanosecond},
		{sense.ModeM, 450 * time.Nanosecond},
		{sense.ModeRM, 600 * time.Nanosecond},
	}
	for _, tt := range tests {
		c, _ := mustController(t, testConfig(), nil)
		if err := c.EnqueueRead(0, 9, 4, tt.mode); err != nil {
			t.Fatalf("EnqueueRead(%v): %v", tt.mode, err)
		}
		comps := c.AdvanceTo(PS(time.Millisecond), nil)
		if len(comps) != 1 || comps[0].At != PS(tt.want) {
			t.Errorf("%v completion %+v, want at %d", tt.mode, comps, PS(tt.want))
		}
	}
}

func TestBankSerialization(t *testing.T) {
	// Two reads to the same bank serialize; to different banks they
	// overlap.
	c, _ := mustController(t, testConfig(), nil)
	if err := c.EnqueueRead(0, 1, 0, sense.ModeR); err != nil {
		t.Fatal(err)
	}
	if err := c.EnqueueRead(0, 2, 2, sense.ModeR); err != nil { // line 2 -> bank 0 too
		t.Fatal(err)
	}
	if err := c.EnqueueRead(0, 3, 1, sense.ModeR); err != nil { // bank 1
		t.Fatal(err)
	}
	comps := c.AdvanceTo(PS(time.Millisecond), nil)
	at := map[uint64]int64{}
	for _, cp := range comps {
		at[cp.ID] = cp.At
	}
	r := PS(150 * time.Nanosecond)
	if at[1] != r || at[3] != r {
		t.Errorf("parallel reads at %d/%d, want both %d", at[1], at[3], r)
	}
	if at[2] != 2*r {
		t.Errorf("serialized read at %d, want %d", at[2], 2*r)
	}
	if got := c.Stats().AvgReadLatency(); got != 200*time.Nanosecond {
		t.Errorf("avg latency = %v, want 200ns", got)
	}
}

func TestReadPriorityOverWrite(t *testing.T) {
	// A queued write behind a queued read waits; the read goes first.
	cfg := testConfig()
	cfg.CancelWrites = false
	c, _ := mustController(t, cfg, nil)
	// Occupy bank 0 with a read, then queue a write and another read.
	if err := c.EnqueueRead(0, 1, 0, sense.ModeR); err != nil {
		t.Fatal(err)
	}
	if !c.EnqueueWrite(0, 2, 296) {
		t.Fatal("write rejected")
	}
	if err := c.EnqueueRead(0, 2, 4, sense.ModeR); err != nil {
		t.Fatal(err)
	}
	comps := c.AdvanceTo(PS(time.Millisecond), nil)
	if len(comps) != 2 {
		t.Fatalf("completions = %d", len(comps))
	}
	// Second read runs right after the first (300ns), before the 1000ns
	// write.
	if comps[1].At != PS(300*time.Nanosecond) {
		t.Errorf("second read at %d ps, want 300ns", comps[1].At)
	}
	if c.Stats().Writes != 1 {
		t.Errorf("write not drained: %+v", c.Stats())
	}
}

func TestWriteCancellation(t *testing.T) {
	cfg := testConfig()
	c, _ := mustController(t, cfg, nil)
	// Start a write on an idle bank, then land a read shortly after.
	if !c.EnqueueWrite(0, 0, 296) {
		t.Fatal("write rejected")
	}
	c.AdvanceTo(PS(100*time.Nanosecond), nil) // write is 10% done
	if err := c.EnqueueRead(PS(100*time.Nanosecond), 7, 0, sense.ModeR); err != nil {
		t.Fatal(err)
	}
	comps := c.AdvanceTo(PS(time.Millisecond), nil)
	if len(comps) != 1 {
		t.Fatalf("completions = %d", len(comps))
	}
	// Read served immediately after cancellation: 100ns + 150ns.
	if comps[0].At != PS(250*time.Nanosecond) {
		t.Errorf("read after cancel at %d ps, want 250ns", comps[0].At)
	}
	st := c.Stats()
	if st.Cancellations != 1 {
		t.Errorf("cancellations = %d, want 1", st.Cancellations)
	}
	if st.Writes != 1 {
		t.Errorf("cancelled write never restarted: %+v", st)
	}
}

func TestNoCancellationPastThreshold(t *testing.T) {
	cfg := testConfig()
	cfg.CancelThreshold = 0.5
	c, _ := mustController(t, cfg, nil)
	if !c.EnqueueWrite(0, 0, 296) {
		t.Fatal("write rejected")
	}
	c.AdvanceTo(PS(700*time.Nanosecond), nil) // 70% done: past threshold
	if err := c.EnqueueRead(PS(700*time.Nanosecond), 7, 0, sense.ModeR); err != nil {
		t.Fatal(err)
	}
	comps := c.AdvanceTo(PS(time.Millisecond), nil)
	if len(comps) != 1 {
		t.Fatalf("completions = %d", len(comps))
	}
	// Read waits for the write to finish: 1000 + 150.
	if comps[0].At != PS(1150*time.Nanosecond) {
		t.Errorf("read at %d ps, want 1150ns", comps[0].At)
	}
	if c.Stats().Cancellations != 0 {
		t.Error("write cancelled past threshold")
	}
}

func TestWriteQueueBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.WriteQueueCap = 4
	cfg.WriteDrainHi = 3
	cfg.WriteDrainLo = 1
	c, _ := mustController(t, cfg, nil)
	// Saturate bank 0's write queue (bank starts one write immediately).
	var accepted int
	for i := 0; i < 10; i++ {
		if c.EnqueueWrite(0, 0, 296) {
			accepted++
		}
	}
	if accepted != 5 { // 1 in flight + 4 queued
		t.Errorf("accepted %d writes, want 5", accepted)
	}
	if c.Stats().WriteQueueStalls != 5 {
		t.Errorf("stalls = %d, want 5", c.Stats().WriteQueueStalls)
	}
	c.AdvanceTo(PS(time.Millisecond), nil)
	if c.Stats().Writes != 5 {
		t.Errorf("drained writes = %d, want 5", c.Stats().Writes)
	}
}

func TestForcedDrainPrioritizesWrites(t *testing.T) {
	cfg := testConfig()
	cfg.CancelWrites = false
	cfg.WriteQueueCap = 8
	cfg.WriteDrainHi = 4
	cfg.WriteDrainLo = 1
	c, _ := mustController(t, cfg, nil)
	// Bank 0: one write in flight plus 4 queued -> draining engages.
	for i := 0; i < 5; i++ {
		if !c.EnqueueWrite(0, 0, 296) {
			t.Fatal("write rejected")
		}
	}
	if err := c.EnqueueRead(0, 1, 0, sense.ModeR); err != nil {
		t.Fatal(err)
	}
	comps := c.AdvanceTo(PS(time.Millisecond), nil)
	if len(comps) != 1 {
		t.Fatalf("completions = %d", len(comps))
	}
	// Draining engages at hi=4 queued and continues until the queue falls
	// to lo=1: the in-flight write plus three more drain (queue 4->1),
	// then the read runs at 4000+150 ns.
	want := PS(4000*time.Nanosecond) + PS(150*time.Nanosecond)
	if comps[0].At != want {
		t.Errorf("read during drain at %d ps, want %d", comps[0].At, want)
	}
}

func TestScrubWalkerRateAndCoverage(t *testing.T) {
	cfg := testConfig()
	cfg.Banks = 2
	cfg.TotalLines = 1 << 10 // 512 lines per bank
	cfg.ScrubInterval = 512 * 150 * time.Nanosecond * 4
	hook := &fixedScrub{act: ScrubAction{ReadLatency: 150 * time.Nanosecond}}
	c, _ := mustController(t, cfg, hook)
	c.AdvanceTo(PS(cfg.ScrubInterval), nil)
	// One full interval: every line visited about once.
	if hook.calls < 1000 || hook.calls > 1100 {
		t.Errorf("scrub visits = %d over one interval of 1024 lines", hook.calls)
	}
	st := c.Stats()
	if st.ScrubReads == 0 || st.ScrubWrites != 0 {
		t.Errorf("scrub stats %+v", st)
	}
	// The sampled lines must map to their bank.
	for i, ln := range hook.lines {
		if c.BankOf(ln) >= cfg.Banks {
			t.Fatalf("scrub line %d (#%d) outside banks", ln, i)
		}
	}
}

func TestScrubRewriteFlowsThroughWriteQueue(t *testing.T) {
	cfg := testConfig()
	cfg.TotalLines = 1 << 8
	cfg.ScrubInterval = time.Millisecond
	hook := &fixedScrub{act: ScrubAction{
		ReadLatency: 450 * time.Nanosecond, Voltage: true, Rewrite: true, CellsWritten: 296,
	}}
	c, _ := mustController(t, cfg, hook)
	c.AdvanceTo(PS(2*time.Millisecond), nil)
	st := c.Stats()
	if st.ScrubReads == 0 {
		t.Fatal("no scrub reads")
	}
	if st.ScrubWrites == 0 {
		t.Fatal("no scrub rewrites")
	}
	if st.ScrubWrites > st.ScrubReads {
		t.Errorf("more rewrites (%d) than scans (%d)", st.ScrubWrites, st.ScrubReads)
	}
	if st.ScrubWriteCells != st.ScrubWrites*296 {
		t.Errorf("scrub write cells %d", st.ScrubWriteCells)
	}
}

func TestNextEventAt(t *testing.T) {
	c, _ := mustController(t, testConfig(), nil)
	if _, ok := c.NextEventAt(); ok {
		t.Error("idle controller reports an event")
	}
	if err := c.EnqueueRead(0, 1, 0, sense.ModeR); err != nil {
		t.Fatal(err)
	}
	at, ok := c.NextEventAt()
	if !ok || at != PS(150*time.Nanosecond) {
		t.Errorf("NextEventAt = %d,%v", at, ok)
	}
}

func TestEnergyCharged(t *testing.T) {
	c, acct := mustController(t, testConfig(), nil)
	if err := c.EnqueueRead(0, 1, 0, sense.ModeR); err != nil {
		t.Fatal(err)
	}
	if !c.EnqueueWrite(0, 1, 296) {
		t.Fatal("write rejected")
	}
	c.AdvanceTo(PS(time.Millisecond), nil)
	b := acct.Dynamic()
	if b.ReadPJ <= 0 || b.WritePJ <= 0 {
		t.Errorf("energy not charged: %+v", b)
	}
}

func TestEnqueueReadInvalidMode(t *testing.T) {
	c, _ := mustController(t, testConfig(), nil)
	if err := c.EnqueueRead(0, 1, 0, sense.Mode(0)); err == nil {
		t.Error("invalid mode accepted")
	}
}

func TestTiedCompletionsRetireHighestBankFirst(t *testing.T) {
	cfg := testConfig()
	cfg.Banks = 4
	c, _ := mustController(t, cfg, nil)
	for _, line := range []uint64{0, 1, 3} { // banks 0, 1 and 3
		if err := c.EnqueueRead(0, 10+line, line, sense.ModeR); err != nil {
			t.Fatal(err)
		}
	}
	comps := c.AdvanceTo(PS(time.Millisecond), nil)
	r := PS(150 * time.Nanosecond)
	want := []Completion{{ID: 13, At: r}, {ID: 11, At: r}, {ID: 10, At: r}}
	if !slices.Equal(comps, want) {
		t.Errorf("completions %+v, want %+v", comps, want)
	}
}

// scrubVisit is one OnScrub call and how many demand reads had retired
// when it was made.
type scrubVisit struct {
	at    int64
	line  uint64
	reads uint64
}

type visitLog struct {
	c      *Controller
	visits []scrubVisit
}

func (v *visitLog) OnScrub(now int64, line uint64) ScrubAction {
	v.visits = append(v.visits, scrubVisit{at: now, line: line, reads: v.c.Stats().Reads})
	return ScrubAction{ReadLatency: 150 * time.Nanosecond}
}

func TestCompletionRetiresBeforeTiedScrubArrival(t *testing.T) {
	cfg := testConfig()
	// One visit per bank every 300 ns (512 lines per bank); the walkers
	// are staggered, so bank 0's starts at 0 and bank 1's at 150 ns.
	cfg.TotalLines = 1 << 10
	cfg.ScrubInterval = 512 * 300 * time.Nanosecond
	log := &visitLog{}
	c, _ := mustController(t, cfg, log)
	log.c = c
	// Bank 1's read completes at 150 ns, when its first scrub arrives.
	if err := c.EnqueueRead(0, 7, 1, sense.ModeR); err != nil {
		t.Fatal(err)
	}
	r := PS(150 * time.Nanosecond)
	if comps := c.AdvanceTo(r, nil); len(comps) != 1 || comps[0].At != r {
		t.Fatalf("completions %+v, want read 7 at %d", comps, r)
	}
	want := []scrubVisit{{at: 0, line: 0, reads: 0}, {at: r, line: 1, reads: 1}}
	if !slices.Equal(log.visits, want) {
		t.Errorf("scrub visits %+v, want %+v", log.visits, want)
	}
}

func TestTiedScrubArrivalsVisitLowestBankFirst(t *testing.T) {
	cfg := testConfig()
	cfg.Banks = 4
	// 1024 lines per bank in 1 ns: the 1 ps visit period staggers every
	// bank's walker to start at 0.
	cfg.TotalLines = 1 << 12
	cfg.ScrubInterval = time.Nanosecond
	log := &visitLog{}
	c, _ := mustController(t, cfg, log)
	log.c = c
	c.AdvanceTo(0, nil)
	want := []scrubVisit{{line: 0}, {line: 1}, {line: 2}, {line: 3}}
	if !slices.Equal(log.visits, want) {
		t.Errorf("scrub visits %+v, want %+v", log.visits, want)
	}
}

// TestOpFitsInlineCopy pins the size of op, which is copied by value on
// every queue push and pop and on dispatch: on amd64, copies of more than
// 64 bytes go through runtime.duffcopy instead of inline moves.
func TestOpFitsInlineCopy(t *testing.T) {
	if got := unsafe.Sizeof(op{}); got > 64 {
		t.Errorf("op is %d bytes, want at most 64", got)
	}
}
