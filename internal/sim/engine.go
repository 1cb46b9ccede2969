package sim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"readduo/internal/cpu"
	"readduo/internal/dist"
	"readduo/internal/drift"
	"readduo/internal/energy"
	"readduo/internal/lwt"
	"readduo/internal/memctrl"
	"readduo/internal/sense"
	"readduo/internal/sim/linetable"
	"readduo/internal/telemetry"
	"readduo/internal/trace"
)

// Config assembles a full-system simulation.
type Config struct {
	// Mem is the memory organization; the scheme overrides ScrubInterval
	// and CellsPerLine as needed.
	Mem memctrl.Config
	// CPU is the core cluster configuration.
	CPU cpu.Config
	// Energy supplies per-operation energies.
	Energy energy.Params
	// Bench selects the workload profile.
	Bench trace.Benchmark
	// Seed drives every random stream of the run.
	Seed int64
	// EpochReads is the converter adjustment epoch (reads per epoch).
	EpochReads int
	// DiffDataCellFraction is the fraction of data cells a differential
	// write programs (paper: ~20% of bits change => 1-0.8^2 = 36% of
	// 2-bit cells).
	DiffDataCellFraction float64
	// ParityCells is the per-line ECC cell count, always reprogrammed by
	// differential writes (parity avalanche).
	ParityCells int
	// TLCCellsPerLine is the tri-level cell count per line for the TLC
	// scheme's timing/energy.
	TLCCellsPerLine int
	// WarmupFrac is the fraction of the instruction budget executed
	// before measurement begins. Warmup populates line states, trains the
	// conversion controller, and fills queues; Result reports only the
	// steady-state window. Standard simulator practice; 0 disables it.
	WarmupFrac float64
	// Source, when non-nil, overrides the synthetic generator as the
	// access stream (e.g. a trace.Replayer over a recorded capture).
	// Bench still supplies the age profile for first-touch reads.
	Source cpu.Source
	// Telemetry, when non-nil, receives hot-path counters and
	// histograms under the "sim" scope. Nil (the default) disables
	// every probe at one nil check per site; results are bit-identical
	// either way.
	Telemetry *telemetry.Registry
}

// DefaultConfig returns the Table VIII-style full-system baseline.
func DefaultConfig(bench trace.Benchmark) Config {
	return Config{
		Mem:                  memctrl.DefaultConfig(),
		CPU:                  cpu.DefaultConfig(),
		Energy:               energy.DefaultParams(),
		Bench:                bench,
		Seed:                 1,
		EpochReads:           1024,
		DiffDataCellFraction: 0.36,
		ParityCells:          40,
		TLCCellsPerLine:      384,
		WarmupFrac:           0.3,
	}
}

// Validate checks the assembled configuration.
func (c Config) Validate() error {
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.Energy.Validate(); err != nil {
		return err
	}
	if err := c.Bench.Validate(); err != nil {
		return err
	}
	if c.EpochReads < 1 {
		return fmt.Errorf("sim: epoch reads must be positive")
	}
	if c.DiffDataCellFraction <= 0 || c.DiffDataCellFraction > 1 {
		return fmt.Errorf("sim: differential cell fraction %v outside (0,1]", c.DiffDataCellFraction)
	}
	if c.ParityCells < 0 || c.ParityCells >= c.Mem.CellsPerLine {
		return fmt.Errorf("sim: parity cells %d inconsistent with %d cells/line",
			c.ParityCells, c.Mem.CellsPerLine)
	}
	if c.TLCCellsPerLine <= 0 {
		return fmt.Errorf("sim: TLC cells per line must be positive")
	}
	if c.WarmupFrac < 0 || c.WarmupFrac >= 1 {
		return fmt.Errorf("sim: warmup fraction %v outside [0,1)", c.WarmupFrac)
	}
	return nil
}

// Engine is one running simulation of one Scheme: Read, Write and OnScrub
// switch on the scheme's Design.
type Engine struct {
	cfg    Config
	scheme Scheme

	ctrl    *memctrl.Controller
	cluster *cpu.Cluster
	acct    *energy.Accounting
	rng     *trace.Rand
	// gen is the engine's own access stream, used when cfg.Source is nil.
	// It is a tape, so a job that follows a job of the same row (the
	// same benchmark, core count and seed) replays the records the row's
	// earlier jobs drew instead of re-seeding four core streams.
	gen *trace.Tape
	// comps is the loop's completion scratch, recycled every iteration so
	// the steady state never allocates.
	comps []memctrl.Completion

	// recordScrubRewrites notes scrub rewrites in lastWrite even for
	// untouched lines (Design.recordsScrubRewrites).
	recordScrubRewrites bool
	// recordWrites notes full demand writes in lastWrite; it is false for
	// a design that never reads the table (Design.readsLastWrite).
	recordWrites bool
	// flagBits is the design's per-line tracking cost a full demand write
	// charges (Design.flagBits), 0 for an untracked design.
	flagBits int
	// lineMask is TotalLines-1 when TotalLines is a power of two, so
	// physLine masks instead of dividing; 0 otherwise.
	lineMask uint64

	// Line state: physical line -> last full write time (ps, possibly
	// far negative for pre-window writes). An open-addressing flat table
	// (internal/sim/linetable): Read, Write, and OnScrub each consult it
	// once, making it the hottest data structure of the run. It starts
	// at 16 slots, or at a recycled engine's emptied table, and grows to
	// the job's footprint; nothing iterates it, so its capacity never
	// reaches a result. A design that never reads it leaves it empty.
	lastWrite *linetable.Table

	// Scrub geometry (ps).
	scrubIntervalPS int64
	scrubPerLinePS  int64
	linesPerBank    uint64
	// lineCells is the design's physical line size — what a scrub rewrite
	// programs.
	lineCells int

	// Read-disturb channel (Environment.Disturb). readCounts is nil when
	// the channel is off, so default-environment runs never touch it.
	disturb    drift.DisturbChannel
	readCounts *linetable.Table

	// Probability caches for the scan metric and the R read path.
	rProbs *probCache
	mProbs *probCache
	// Steady-state W=1 rewrite fraction for lines outside the map.
	steadyRewrite float64

	converter *lwt.Converter
	// convertedLines marks lines whose tracking came from an R-M-read
	// conversion, to measure conversion payoff.
	convertedLines map[uint64]struct{}

	// now is the event loop's clock (ps) and steps counts its steps, one
	// per instant it handles, for the cancellation poll and maxSteps.
	now   int64
	steps uint64

	nextID           uint64
	reads            uint64
	epochReads       uint64
	epochUntracked   uint64
	epochConversions uint64
	epochRehits      uint64

	stats runStats
	// tel is never nil: disabled engines share the static all-nil
	// probe set (see disabledProbes in probes.go).
	tel *engineProbes

	// Measurement-window snapshot, taken when warmup completes.
	warmupInstr uint64
	warmupDone  bool
	markTimePS  int64
	markInstr   uint64
	markEnergy  energy.Breakdown
	markCellWr  uint64
	markMem     memctrl.Stats
	markRun     runStats
}

// sub returns the counter-wise difference of run stats.
func (r runStats) sub(base runStats) runStats {
	return runStats{
		untrackedReads: r.untrackedReads - base.untrackedReads,
		conversions:    r.conversions - base.conversions,
		convSkipped:    r.convSkipped - base.convSkipped,
		silentErrors:   r.silentErrors - base.silentErrors,
		fullWrites:     r.fullWrites - base.fullWrites,
		diffWrites:     r.diffWrites - base.diffWrites,
		hybridRetries:  r.hybridRetries - base.hybridRetries,
	}
}

type runStats struct {
	untrackedReads uint64
	conversions    uint64
	convSkipped    uint64
	silentErrors   uint64
	fullWrites     uint64
	diffWrites     uint64
	hybridRetries  uint64
}

var _ cpu.MemPort = (*Engine)(nil)
var _ memctrl.ScrubHook = (*Engine)(nil)

// Run executes one (scheme, workload) simulation and returns its Result.
func Run(cfg Config, scheme Scheme) (*Result, error) {
	return RunContext(context.Background(), cfg, scheme)
}

// RunContext is Run with cooperative cancellation: the event loop polls
// ctx every 8,192 steps and aborts with ctx's error. Results
// are bit-identical to Run when ctx is never cancelled — the poll reads
// the context without touching any simulation state.
func RunContext(ctx context.Context, cfg Config, scheme Scheme) (*Result, error) {
	e, err := newEngine(cfg, scheme)
	if err != nil {
		return nil, err
	}
	if err := e.loop(ctx); err != nil {
		return nil, err
	}
	res := e.result()
	e.empty()
	enginePool.Put(e)
	return res, nil
}

// enginePool holds engines whose run finished, emptied, for newEngine to
// rebuild in place. A job then reuses the previous job's seeded stream
// sources, controller queues and line tables instead of allocating them.
// An engine whose run failed, was cancelled or panicked never enters it.
var enginePool sync.Pool

// newEngine validates the configuration and assembles a ready-to-run
// engine (memory controller, CPU cluster, probability tables) without
// starting the event loop — the seam the steady-state allocation tests
// drive the read/write paths through. It rebuilds a pooled engine when
// there is one and a new one otherwise, through the same init.
func newEngine(cfg Config, scheme Scheme) (*Engine, error) {
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, _ := enginePool.Get().(*Engine)
	if e == nil {
		e = new(Engine)
	}
	if err := e.init(cfg, scheme); err != nil {
		return nil, err
	}
	return e, nil
}

// empty readies a finished engine for enginePool. It keeps only what
// init rebuilds in place: the engine's stream source, the generator tape
// with its records (the next job replays them if it runs the same row),
// the controller, the CPU cluster (released from its Source), the line
// tables and the converted-line map (cleared) and the completion
// scratch. Every other field is zeroed, so a pooled engine holds no
// reference to the caller's Source or Telemetry and none to a shared
// probability table.
func (e *Engine) empty() {
	e.lastWrite.Reset()
	if e.readCounts != nil {
		e.readCounts.Reset()
	}
	clear(e.convertedLines)
	e.cluster.Release()
	*e = Engine{rng: e.rng, gen: e.gen, ctrl: e.ctrl, cluster: e.cluster, comps: e.comps[:0],
		lastWrite: e.lastWrite, readCounts: e.readCounts, convertedLines: e.convertedLines}
}

// init builds the engine for one run over what empty kept, which is
// nothing on a new engine: each kept part is re-seeded or was emptied,
// the tape is rewound when the job runs the previous job's benchmark,
// core count and seed and re-seeded otherwise, and each missing part is
// allocated. cfg and scheme are valid.
func (e *Engine) init(cfg Config, scheme Scheme) error {
	rng, ctrl, cluster, lastWrite, counts, converted := e.rng, e.ctrl, e.cluster, e.lastWrite, e.readCounts, e.convertedLines
	*e = Engine{cfg: cfg, scheme: scheme, gen: e.gen, comps: e.comps,
		tel: newEngineProbes(cfg.Telemetry)}
	if rng == nil {
		rng = new(trace.Rand)
	}
	rng.Reseed(cfg.Seed)
	e.rng = rng
	if lastWrite == nil {
		lastWrite = linetable.New(0)
	}
	e.lastWrite = lastWrite

	// Scheme-specific memory configuration, derived from the design.
	memCfg := cfg.Mem
	interval, _, w := scheme.Scrub.Plan()
	memCfg.ScrubInterval = interval
	memCfg.CellsPerLine = scheme.lineCells(cfg)
	e.lineCells = memCfg.CellsPerLine
	e.recordScrubRewrites = scheme.recordsScrubRewrites()
	e.recordWrites = scheme.readsLastWrite()
	e.flagBits = scheme.flagBits()
	if n := memCfg.TotalLines; n&(n-1) == 0 {
		e.lineMask = n - 1
	}
	if scheme.Env.Disturb > 0 {
		e.disturb = drift.DisturbChannel{PerRead: scheme.Env.Disturb}
		if counts == nil {
			counts = linetable.New(0)
		}
		e.readCounts = counts
	}
	e.tel.scrubIntervalMS.Set(interval.Milliseconds())
	e.tel.scrubW.Set(int64(w))
	e.scrubIntervalPS = memctrl.PS(interval)
	e.linesPerBank = memCfg.TotalLines / uint64(memCfg.Banks)
	if interval > 0 {
		e.scrubPerLinePS = e.scrubIntervalPS / int64(e.linesPerBank)
	}

	acct, err := energy.NewAccounting(cfg.Energy)
	if err != nil {
		return err
	}
	e.acct = acct

	var hook memctrl.ScrubHook
	if interval > 0 {
		hook = e
	}
	if ctrl == nil {
		ctrl = new(memctrl.Controller)
	}
	if err := ctrl.Reset(memCfg, acct, hook); err != nil {
		return err
	}
	e.ctrl = ctrl

	// Reliability machinery for the scan and read paths: one lookup in
	// the process-wide memo (probcache.go), so every job of a campaign
	// shares the same immutable quadrature results instead of rebuilding
	// them.
	tables, err := sharedTables(scheme.Env.Temperature(), scheme.Scrub)
	if err != nil {
		return err
	}
	e.rProbs, e.mProbs, e.steadyRewrite = tables.r, tables.m, tables.steadyRewrite

	if scheme.usesConverter() {
		conv, err := lwt.NewConverter()
		if err != nil {
			return err
		}
		e.converter = conv
		if converted == nil {
			converted = make(map[uint64]struct{})
		}
		e.convertedLines = converted
	}

	src := cfg.Source
	if src == nil {
		if e.gen == nil {
			e.gen = new(trace.Tape)
		}
		if err := e.gen.Reset(cfg.Bench, cfg.CPU.Cores, cfg.Seed); err != nil {
			return err
		}
		src = e.gen
	}
	if cluster == nil {
		cluster = new(cpu.Cluster)
	}
	if err := cluster.Reset(cfg.CPU, src); err != nil {
		return err
	}
	e.cluster = cluster
	e.warmupInstr = uint64(float64(cfg.CPU.InstrBudget*uint64(cfg.CPU.Cores)) * cfg.WarmupFrac)
	if e.warmupInstr == 0 {
		e.warmupDone = true
	}
	return nil
}

// cancelCheckMask throttles the event loop's context poll to one check
// every 8192 steps — cheap against the hot path while still bounding the
// abort latency of a cancelled request to microseconds.
const cancelCheckMask = 1<<13 - 1

// maxSteps bounds the event loop: a run still going after this many steps
// has stopped making progress.
const maxSteps = 1 << 62

// loop is the two-clock event loop: the CPU cluster proposes its next issue
// time, the memory controller its next internal event; the earlier one
// advances global time. At one timestamp memory completions go first, then
// write-queue retries, then core issues in core index order. The
// controller is advanced only when it has an event due, so on a CPU-only
// step its clock lags until its next event; nothing reads it in between.
//
// A step handles one instant. While a core waits on a full write queue,
// and at an instant where both sides have work, a step is one turn. While
// no core is stalled the loop runs in bursts instead: the controller
// handles its events one instant at a time up to the first instant that
// completes a demand read, or else up to the cluster's next issue, and
// the cores issue back to back while each next issue comes strictly
// before the controller's next event. Each instant inside a burst is a
// step of its own, so a run takes the same steps, and polls ctx at the
// same instants, as it would in turns.
func (e *Engine) loop(ctx context.Context) error {
	for {
		if err := e.tick(ctx); err != nil {
			return err
		}
		if e.cluster.AllDone() {
			// Let in-flight work finish for accounting symmetry? The
			// paper measures execution time; stop at last retirement.
			return nil
		}
		tCPU, okCPU := e.cluster.NextActionAt()
		tMem, okMem := e.ctrl.NextEventAt()
		var err error
		switch {
		case !okCPU && !okMem:
			return fmt.Errorf("sim: deadlock: all cores blocked, memory idle")
		case e.cluster.Stalled() || okCPU && okMem && tCPU == tMem:
			err = e.turn(tCPU, okCPU, tMem, okMem)
		case okMem && (!okCPU || tMem < tCPU):
			err = e.memoryBurst(ctx, tMem, tCPU, okCPU)
		default:
			err = e.cpuBurst(ctx, tCPU)
		}
		if err != nil {
			return err
		}
	}
}

// tick counts one step of the loop, polling ctx at every 8192nd. It is
// small enough to inline; the poll is not.
func (e *Engine) tick(ctx context.Context) error {
	if e.steps&cancelCheckMask == 0 {
		return e.poll(ctx)
	}
	e.steps++
	return nil
}

// poll is tick's every-8192nd step: it checks the step bound and ctx
// before counting the step.
func (e *Engine) poll(ctx context.Context) error {
	if e.steps >= maxSteps {
		return fmt.Errorf("sim: event loop did not terminate")
	}
	if ctx.Err() != nil {
		return fmt.Errorf("sim: run aborted: %w", ctx.Err())
	}
	e.steps++
	return nil
}

// turn handles the earlier of the two deadlines as one instant: memory
// events due then, write-queue retries, then the cores due then.
func (e *Engine) turn(tCPU int64, okCPU bool, tMem int64, okMem bool) error {
	t := tMem
	if !okMem || okCPU && tCPU < tMem {
		t = tCPU
	}
	if t < e.now {
		t = e.now
	}
	progressed := t > e.now
	e.now = t
	completed := false
	if okMem && tMem <= t {
		var err error
		if completed, err = e.advance(t); err != nil {
			return err
		}
	}
	// Write-queue retries only make sense once memory state changed;
	// retrying at a frozen timestamp would spin.
	if progressed || completed {
		e.cluster.RetryAt(t)
	}
	if err := e.cluster.Step(t, e); err != nil {
		return err
	}
	e.checkWarmup()
	return nil
}

// memoryBurst handles the controller's instants from tMem on, one step
// each, while they come before the cluster's next issue tCPU (which no
// core can move until a read completes), and ends after the first instant
// that completes a demand read. No core waits on a full write queue, so no
// retry is due at any of them. The warmup check still follows every
// instant: a budget small enough to pass the warmup mark with the cores'
// first fetches is marked at the run's first instant, which may be a
// scrub arrival.
func (e *Engine) memoryBurst(ctx context.Context, tMem, tCPU int64, okCPU bool) error {
	for {
		e.now = tMem
		completed, err := e.advance(tMem)
		if err != nil {
			return err
		}
		e.checkWarmup()
		if completed {
			return nil
		}
		var okMem bool
		if tMem, okMem = e.ctrl.NextEventAt(); !okMem || okCPU && tMem >= tCPU {
			return nil
		}
		if err := e.tick(ctx); err != nil {
			return err
		}
	}
}

// cpuBurst issues the cores due at tCPU and then at each next issue time,
// one step each, while that time comes strictly before the controller's
// next event (which an issue may move) and no write has stalled.
func (e *Engine) cpuBurst(ctx context.Context, tCPU int64) error {
	for {
		e.now = tCPU
		if err := e.cluster.Step(tCPU, e); err != nil {
			return err
		}
		e.checkWarmup()
		if e.cluster.Stalled() {
			return nil
		}
		var okCPU bool
		if tCPU, okCPU = e.cluster.NextActionAt(); !okCPU {
			return nil
		}
		if tMem, okMem := e.ctrl.NextEventAt(); okMem && tMem <= tCPU {
			return nil
		}
		if err := e.tick(ctx); err != nil {
			return err
		}
	}
}

// advance runs the controller to t and hands each demand read that
// completes to the cluster; it reports whether any did.
func (e *Engine) advance(t int64) (bool, error) {
	e.comps = e.ctrl.AdvanceTo(t, e.comps)
	for _, comp := range e.comps {
		if err := e.cluster.OnReadComplete(comp.ID, comp.At); err != nil {
			return false, err
		}
	}
	return len(e.comps) > 0, nil
}

// checkWarmup marks the warmup boundary at the first instant the cores
// have retired the warmup budget.
func (e *Engine) checkWarmup() {
	if !e.warmupDone && e.cluster.TotalRetired() >= e.warmupInstr {
		e.mark(e.now)
	}
}

// mark snapshots every counter at the warmup boundary; Result reports the
// deltas from here.
func (e *Engine) mark(now int64) {
	e.warmupDone = true
	e.markTimePS = now
	e.markInstr = e.cluster.TotalRetired()
	e.markEnergy = e.acct.Dynamic()
	e.markCellWr = e.acct.WriteCellCount()
	e.markMem = e.ctrl.Stats()
	e.markRun = e.stats
}

// physLine maps a trace line address onto the physical line space.
func (e *Engine) physLine(traceLine uint64) uint64 {
	h := dist.Splitmix64(traceLine ^ uint64(e.cfg.Seed))
	if e.lineMask != 0 {
		return h & e.lineMask
	}
	return h % e.cfg.Mem.TotalLines
}

// scrubPhase returns when the walker visits this line within each interval
// (ps offset in [0, S)), matching the controller's deterministic walk.
func (e *Engine) scrubPhase(phys uint64) int64 {
	if e.scrubIntervalPS == 0 {
		return 0
	}
	bankIdx := phys % uint64(e.cfg.Mem.Banks)
	cursor := phys / uint64(e.cfg.Mem.Banks)
	stagger := int64(bankIdx) * e.scrubPerLinePS / int64(e.cfg.Mem.Banks)
	return int64(cursor)*e.scrubPerLinePS + stagger
}

// lastScrubAt returns the most recent walker visit to the line at or before
// now (can be negative when now is inside the first interval).
func (e *Engine) lastScrubAt(phys uint64, now int64) int64 {
	if e.scrubIntervalPS == 0 {
		return -1 << 62
	}
	phase := e.scrubPhase(phys)
	d := now - phase
	n := d / e.scrubIntervalPS
	if d < 0 && d%e.scrubIntervalPS != 0 {
		n--
	}
	return phase + n*e.scrubIntervalPS
}

// lineLastWrite fetches (lazily creating) the line's last full write. For a
// first-touch read the virtual age comes from the workload profile; a
// first-touch write is simply recorded at its own time by the caller.
func (e *Engine) lineLastWrite(phys uint64, now int64) int64 {
	if t, ok := e.lastWrite.Get(phys); ok {
		return t
	}
	interval := time.Duration(e.scrubIntervalPS/1000) * time.Nanosecond
	if interval == 0 {
		interval = 640 * time.Second
	}
	age := e.cfg.Bench.SampleInitialAge(interval, &e.rng.Rand)
	t := now - memctrl.PS(age)
	e.lastWrite.Put(phys, t)
	return t
}

// ageSeconds converts a last-write timestamp to seconds of drift age.
func (e *Engine) ageSeconds(now, lastWrite int64) float64 {
	if lastWrite >= now {
		return 0
	}
	return float64(now-lastWrite) / 1e12
}

// Read implements cpu.MemPort: the design's sense mode decides which
// readout services the access.
func (e *Engine) Read(now int64, core int, line uint64) (uint64, error) {
	phys := e.physLine(line)
	mode := e.readMode(now, phys)
	switch mode {
	case sense.ModeM:
		e.tel.readM.Inc()
	case sense.ModeRM:
		e.tel.readRM.Inc()
	default:
		e.tel.readR.Inc()
	}
	e.nextID++
	id := e.nextID
	if err := e.ctrl.EnqueueRead(now, id, phys, mode); err != nil {
		return 0, err
	}
	if e.readCounts != nil {
		e.noteDisturbRead(phys)
	}
	e.reads++
	e.epochTick()
	return id, nil
}

// epochTick runs the converter's feedback loop once per epoch of reads.
func (e *Engine) epochTick() {
	e.epochReads++
	if e.converter == nil || e.epochReads < uint64(e.cfg.EpochReads) {
		return
	}
	p := float64(e.epochUntracked) / float64(e.epochReads)
	// The fraction is in [0,1] by construction; an error here is a bug.
	if err := e.converter.EpochUpdate(p, e.epochConversions, e.epochRehits); err != nil {
		panic(fmt.Sprintf("sim: converter epoch: %v", err))
	}
	e.epochReads, e.epochUntracked, e.epochConversions, e.epochRehits = 0, 0, 0, 0
}

// Write implements cpu.MemPort: the design's write mode decides the
// programming mode, the engine handles queueing and bookkeeping.
func (e *Engine) Write(now int64, core int, line uint64) (bool, error) {
	phys := e.physLine(line)
	cells, full := e.planWrite(now, phys)
	if !e.ctrl.EnqueueWrite(now, phys, cells) {
		e.tel.writeBlocked.Inc()
		return false, nil
	}
	e.tel.writeCells.Observe(uint64(cells))
	if full {
		e.stats.fullWrites++
		e.tel.writeFull.Inc()
		// A design that reads the line state records demand writes:
		// tracking designs for the flag semantics, the rest so
		// scrub-rewrite sampling and Hybrid's age math see correct drift
		// clocks.
		if e.recordWrites {
			e.lastWrite.Put(phys, now)
		}
		e.noteDisturbRewrite(phys)
		if e.flagBits > 0 {
			e.acct.AddFlagAccess(e.flagBits)
		}
	} else {
		e.stats.diffWrites++
		e.tel.writeDiff.Inc()
		// Differential writes leave the tracker (and so lastWrite, which
		// models the last FULL write) untouched.
	}
	return true, nil
}

// OnScrub implements memctrl.ScrubHook: the per-visit scan and W-policy
// decision, driven by the design's scrub plan.
func (e *Engine) OnScrub(now int64, phys uint64) memctrl.ScrubAction {
	if e.scrubIntervalPS == 0 {
		return memctrl.ScrubAction{}
	}
	e.tel.scrubScan.Inc()
	act := memctrl.ScrubAction{CellsWritten: e.lineCells}
	plan := e.scheme.Scrub
	if plan.Metric == drift.MetricM {
		act.ReadLatency = e.cfg.Mem.Timing.MRead
		act.Voltage = true
	} else {
		act.ReadLatency = e.cfg.Mem.Timing.RRead
	}
	switch {
	case plan.W == 0:
		act.Rewrite = true
	default:
		// W=1: rewrite iff the scan finds >= 1 drifted cell.
		var p float64
		if last, ok := e.lastWrite.Get(phys); ok {
			age := e.ageSeconds(now, last)
			if plan.Metric == drift.MetricM {
				p = e.mProbs.AnyError(age)
			} else {
				p = e.rProbs.AnyError(age)
			}
		} else {
			// Untouched line: long-run renewal rate.
			p = e.steadyRewrite
		}
		if e.readCounts != nil {
			p = e.disturbCombine(p, phys)
		}
		act.Rewrite = e.rng.Float64() < p
	}
	if e.readCounts != nil {
		e.noteDisturbScrub(phys, act.Rewrite)
	}
	if act.Rewrite {
		e.tel.scrubRewrite.Inc()
		if _, ok := e.lastWrite.Get(phys); ok || e.recordScrubRewrites {
			e.lastWrite.Put(phys, now)
		}
	}
	return act
}
