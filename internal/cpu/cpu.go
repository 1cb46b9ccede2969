// Package cpu models the paper's 4-core in-order CPU front end replaying
// memory traces against the PCM memory system. Each core executes one
// instruction per cycle, blocks on demand reads (reads sit on the critical
// path, which is why M-sensing's 450 ns hurts), and buffers writes into the
// memory controller's write queues, stalling only on backpressure.
package cpu

import (
	"fmt"

	"readduo/internal/trace"
)

// Source yields per-core access streams (a trace.Generator or a trace file
// replayer).
type Source interface {
	Next(core int) (trace.Record, error)
}

// MemPort is the CPU cluster's view of the memory system; the simulator
// implements it with the scheme-specific read/write paths.
type MemPort interface {
	// Read issues a demand read and returns the request id the completion
	// will carry.
	Read(now int64, core int, line uint64) (uint64, error)
	// Write issues a line write; false means the write queue is full and
	// the core must retry.
	Write(now int64, core int, line uint64) (bool, error)
}

// Config parameterizes the cluster.
type Config struct {
	// Cores is the core count (paper: 4).
	Cores int
	// FreqGHz is the core clock (paper baseline: 2 GHz, IPC 1).
	FreqGHz float64
	// InstrBudget is the per-core instruction count to retire.
	InstrBudget uint64
	// MLP is the per-core memory-level parallelism: how many reads may be
	// outstanding before the core stalls. 1 models a strictly blocking
	// core; the default 4 models the miss overlap the paper's baseline
	// (in-order cores behind a cache hierarchy with prefetching) sustains
	// — the regime where bank queueing, not raw sensing latency, shapes
	// read response times.
	MLP int
}

// DefaultConfig returns the paper's CPU configuration with a simulation
// budget suitable for a full evaluation run.
func DefaultConfig() Config {
	return Config{Cores: 4, FreqGHz: 2, InstrBudget: 2_000_000, MLP: 4}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores < 1 || c.Cores > 255 {
		return fmt.Errorf("cpu: core count %d out of range", c.Cores)
	}
	if c.FreqGHz <= 0 {
		return fmt.Errorf("cpu: frequency %v must be positive", c.FreqGHz)
	}
	if c.InstrBudget == 0 {
		return fmt.Errorf("cpu: zero instruction budget")
	}
	if c.MLP < 1 {
		return fmt.Errorf("cpu: MLP %d must be at least 1", c.MLP)
	}
	return nil
}

type coreState int

const (
	coreRunning     coreState = iota + 1 // will issue its pending access at readyAt
	coreWaitingRead                      // MLP window full: waiting for any completion
	coreStalledWrite
	coreDone
)

type core struct {
	state       coreState
	readyAt     int64
	pending     trace.Record
	outstanding int
	retired     uint64
	finishedAt  int64
	reads       uint64
	writes      uint64
}

// waitEntry pairs an outstanding read request with its issuing core. The
// set is bounded by Cores*MLP (16 in the default configuration), so a
// flat slice with linear lookup and swap-removal beats a map: no hashing,
// no bucket chasing, no allocation.
type waitEntry struct {
	id   uint64
	core int
}

// Cluster drives the cores.
type Cluster struct {
	cfg     Config
	src     Source
	cores   []core
	cycPS   int64
	waiting []waitEntry // outstanding reads; len <= Cores*MLP

	// stalledWrites counts cores in coreStalledWrite so RetryAt skips the
	// core scan in the common all-flowing case.
	stalledWrites int

	// Cached deadlines, recomputed lazily after any state change: nextAt
	// is the earliest issue time among running cores (NextActionAt),
	// stepAt additionally admits stalled-write retries (Step's early-out).
	nextAt    int64
	nextOK    bool
	stepAt    int64
	stepOK    bool
	nextValid bool
}

// NewCluster builds the cluster and primes each core's first access.
func NewCluster(cfg Config, src Source) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("cpu: nil trace source")
	}
	cl := &Cluster{
		cfg:     cfg,
		src:     src,
		cores:   make([]core, cfg.Cores),
		cycPS:   int64(1000/cfg.FreqGHz + 0.5),
		waiting: make([]waitEntry, 0, cfg.Cores*cfg.MLP),
	}
	for i := range cl.cores {
		if err := cl.fetch(i, 0); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// recompute refreshes the cached deadlines from the core states.
func (cl *Cluster) recompute() {
	var nextAt, stepAt int64
	nextOK, stepOK := false, false
	for i := range cl.cores {
		c := &cl.cores[i]
		switch c.state {
		case coreRunning:
			if !nextOK || c.readyAt < nextAt {
				nextAt, nextOK = c.readyAt, true
			}
			if !stepOK || c.readyAt < stepAt {
				stepAt, stepOK = c.readyAt, true
			}
		case coreStalledWrite:
			if !stepOK || c.readyAt < stepAt {
				stepAt, stepOK = c.readyAt, true
			}
		}
	}
	cl.nextAt, cl.nextOK = nextAt, nextOK
	cl.stepAt, cl.stepOK = stepAt, stepOK
	cl.nextValid = true
}

// fetch loads core i's next record and schedules its issue time after the
// instruction gap; it retires the budget check first.
func (cl *Cluster) fetch(i int, now int64) error {
	c := &cl.cores[i]
	if c.retired >= cl.cfg.InstrBudget {
		c.state = coreDone
		c.finishedAt = now
		cl.nextValid = false
		return nil
	}
	rec, err := cl.src.Next(i)
	if err != nil {
		return fmt.Errorf("cpu: core %d trace: %w", i, err)
	}
	c.pending = rec
	c.state = coreRunning
	// The gap instructions plus the access instruction's own cycle elapse
	// before the access reaches memory.
	c.readyAt = now + (int64(rec.Gap)+1)*cl.cycPS
	c.retired += uint64(rec.Gap) + 1
	cl.nextValid = false
	return nil
}

// NextActionAt returns the earliest time any core wants to act, or ok=false
// when every core is blocked or done. Cores stalled on a full write queue
// do not propose actions — retrying before the memory side has advanced
// would livelock the event loop at a frozen timestamp; RetryAt re-arms them
// once memory progresses.
func (cl *Cluster) NextActionAt() (int64, bool) {
	if !cl.nextValid {
		cl.recompute()
	}
	return cl.nextAt, cl.nextOK
}

// Step issues the accesses of every core ready at or before now. When the
// cached deadline says no core is actionable yet, the scan is skipped.
func (cl *Cluster) Step(now int64, mem MemPort) error {
	if !cl.nextValid {
		cl.recompute()
	}
	if !cl.stepOK || cl.stepAt > now {
		return nil
	}
	for i := range cl.cores {
		c := &cl.cores[i]
		if c.readyAt > now {
			continue
		}
		switch c.state {
		case coreRunning, coreStalledWrite:
			if err := cl.issue(i, now, mem); err != nil {
				return err
			}
		}
	}
	return nil
}

func (cl *Cluster) issue(i int, now int64, mem MemPort) error {
	c := &cl.cores[i]
	if c.pending.Write {
		ok, err := mem.Write(now, i, c.pending.Line)
		if err != nil {
			return err
		}
		if !ok {
			// Backpressure: retry when the memory system next advances.
			if c.state != coreStalledWrite {
				cl.stalledWrites++
			}
			c.state = coreStalledWrite
			c.writesStalled(now)
			cl.nextValid = false
			return nil
		}
		if c.state == coreStalledWrite {
			cl.stalledWrites--
		}
		c.writes++
		return cl.fetch(i, now)
	}
	id, err := mem.Read(now, i, c.pending.Line)
	if err != nil {
		return err
	}
	c.reads++
	c.outstanding++
	cl.waiting = append(cl.waiting, waitEntry{id: id, core: i})
	if c.outstanding >= cl.cfg.MLP {
		// Window full: stall until a completion frees a slot.
		c.state = coreWaitingRead
		cl.nextValid = false
		return nil
	}
	return cl.fetch(i, now)
}

func (c *core) writesStalled(now int64) {
	if c.readyAt < now {
		c.readyAt = now
	}
}

// OnReadComplete retires an outstanding read, resuming the core if the
// completion freed a full MLP window.
func (cl *Cluster) OnReadComplete(id uint64, at int64) error {
	idx := -1
	for j := range cl.waiting {
		if cl.waiting[j].id == id {
			idx = j
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("cpu: completion for unknown request %d", id)
	}
	i := cl.waiting[idx].core
	last := len(cl.waiting) - 1
	cl.waiting[idx] = cl.waiting[last]
	cl.waiting = cl.waiting[:last]
	c := &cl.cores[i]
	if c.outstanding <= 0 {
		return fmt.Errorf("cpu: core %d has no outstanding reads", i)
	}
	c.outstanding--
	if c.state == coreWaitingRead {
		return cl.fetch(i, at)
	}
	return nil
}

// RetryAt re-arms stalled-write cores for a retry at `now`; the engine
// calls it after the memory controller has made progress (completions fired
// or time advanced), so the retry can observe drained queues.
func (cl *Cluster) RetryAt(now int64) {
	if cl.stalledWrites == 0 {
		return
	}
	for i := range cl.cores {
		c := &cl.cores[i]
		if c.state == coreStalledWrite && c.readyAt < now {
			c.readyAt = now
			cl.nextValid = false
		}
	}
}

// TotalRetired sums retired instructions across cores.
func (cl *Cluster) TotalRetired() uint64 {
	var n uint64
	for i := range cl.cores {
		n += cl.cores[i].retired
	}
	return n
}

// AllDone reports whether every core retired its budget.
func (cl *Cluster) AllDone() bool {
	for i := range cl.cores {
		if cl.cores[i].state != coreDone {
			return false
		}
	}
	return true
}

// BlockedOnMemory reports whether at least one core waits on a read
// completion (used by the simulator to decide whether time can be driven by
// the memory side alone).
func (cl *Cluster) BlockedOnMemory() bool {
	for i := range cl.cores {
		if cl.cores[i].state == coreWaitingRead {
			return true
		}
	}
	return false
}

// CoreStats describes one core's run.
type CoreStats struct {
	Retired    uint64
	Reads      uint64
	Writes     uint64
	FinishedAt int64 // ps; 0 if unfinished
	Done       bool
}

// Stats returns per-core statistics.
func (cl *Cluster) Stats() []CoreStats {
	out := make([]CoreStats, len(cl.cores))
	for i := range cl.cores {
		c := &cl.cores[i]
		out[i] = CoreStats{
			Retired: c.retired, Reads: c.reads, Writes: c.writes,
			FinishedAt: c.finishedAt, Done: c.state == coreDone,
		}
	}
	return out
}

// FinishTime returns the time the last core finished; valid once AllDone.
func (cl *Cluster) FinishTime() int64 {
	var last int64
	for i := range cl.cores {
		if cl.cores[i].finishedAt > last {
			last = cl.cores[i].finishedAt
		}
	}
	return last
}
