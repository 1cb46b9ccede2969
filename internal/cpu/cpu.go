// Package cpu models the paper's 4-core in-order CPU front end replaying
// memory traces against the PCM memory system. Each core executes one
// instruction per cycle, blocks on demand reads (reads sit on the critical
// path, which is why M-sensing's 450 ns hurts), and buffers writes into the
// memory controller's write queues, stalling only on backpressure.
package cpu

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

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
	coreRunning     coreState = iota + 1 // will issue its pending access at runAt
	coreWaitingRead                      // MLP window full: waiting for any completion
	coreStalledWrite
	coreDone
)

type core struct {
	state       coreState
	pending     trace.Record
	outstanding int
	retired     uint64
	finishedAt  int64
	reads       uint64
	writes      uint64
}

// never marks a core with no deadline in runAt or stallAt.
const never = math.MaxInt64

// Cluster drives the cores.
type Cluster struct {
	cfg   Config
	src   Source
	cores []core
	cycPS int64

	// runAt[i] is core i's issue time while it runs and stallAt[i] its
	// retry time while a full write queue stalls it, never otherwise; at
	// most one of the two is set. They are the only record of either,
	// packed so the per-event scans read two short arrays and no core
	// struct.
	runAt   []int64
	stallAt []int64

	// waitIDs holds the request ids of outstanding reads and waitCores
	// their issuing cores, index for index. The set is bounded by
	// Cores*MLP (16 in the default configuration); a linear scan of the
	// ids with swap-removal measured faster than an open-addressed table.
	waitIDs   []uint64
	waitCores []int

	// stalledWrites counts cores in coreStalledWrite so RetryAt skips the
	// scan in the common all-flowing case.
	stalledWrites int
	// done counts cores in coreDone and retired sums every core's retired
	// instructions, so AllDone and TotalRetired are field reads.
	done    int
	retired uint64

	// nextAt caches the minimum of runAt (NextActionAt) and stepAt the
	// minimum over both arrays (Step's early-out). Every deadline change
	// clears valid; the next query rescans.
	nextAt, stepAt int64
	valid          bool
}

// NewCluster builds the cluster and primes each core's first access.
func NewCluster(cfg Config, src Source) (*Cluster, error) {
	cl := new(Cluster)
	if err := cl.Reset(cfg, src); err != nil {
		return nil, err
	}
	return cl, nil
}

// Reset re-initializes cl as NewCluster(cfg, src) builds a cluster. It
// keeps the capacity of cl's per-core and outstanding-read slices and
// zeroes everything else; NewCluster is the case of a zero Cluster.
func (cl *Cluster) Reset(cfg Config, src Source) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if src == nil {
		return fmt.Errorf("cpu: nil trace source")
	}
	n, window := cfg.Cores, cfg.Cores*cfg.MLP
	*cl = Cluster{
		cfg:       cfg,
		src:       src,
		cores:     slices.Grow(cl.cores[:0], n)[:n],
		cycPS:     int64(1000/cfg.FreqGHz + 0.5),
		runAt:     slices.Grow(cl.runAt[:0], n)[:n],
		stallAt:   slices.Grow(cl.stallAt[:0], n)[:n],
		waitIDs:   slices.Grow(cl.waitIDs[:0], window),
		waitCores: slices.Grow(cl.waitCores[:0], window),
	}
	clear(cl.cores)
	for i := range cl.cores {
		cl.runAt[i], cl.stallAt[i] = never, never
		if err := cl.fetch(i, 0); err != nil {
			return err
		}
	}
	return nil
}

// Release drops cl's reference to its Source, so a cluster kept for a
// later Reset holds none of its caller's memory. cl must be Reset before
// it runs again.
func (cl *Cluster) Release() { cl.src = nil }

// recompute refreshes the cached deadlines from the two arrays.
func (cl *Cluster) recompute() {
	next, stall := int64(never), int64(never)
	for i, at := range cl.runAt {
		next = min(next, at)
		stall = min(stall, cl.stallAt[i])
	}
	cl.nextAt, cl.stepAt, cl.valid = next, min(next, stall), true
}

// fetch loads core i's next record and schedules its issue time after the
// instruction gap; it retires the budget check first.
func (cl *Cluster) fetch(i int, now int64) error {
	c := &cl.cores[i]
	cl.stallAt[i], cl.valid = never, false
	if c.retired >= cl.cfg.InstrBudget {
		c.state = coreDone
		c.finishedAt = now
		cl.runAt[i] = never
		cl.done++
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
	n := uint64(rec.Gap) + 1
	cl.runAt[i] = now + int64(n)*cl.cycPS
	c.retired += n
	cl.retired += n
	return nil
}

// NextActionAt returns the earliest time any core wants to act, or ok=false
// when every core is blocked or done. Cores stalled on a full write queue
// do not propose actions — retrying before the memory side has advanced
// would livelock the event loop at a frozen timestamp; RetryAt re-arms them
// once memory progresses.
func (cl *Cluster) NextActionAt() (int64, bool) {
	if !cl.valid {
		cl.recompute()
	}
	if cl.nextAt == never {
		return 0, false
	}
	return cl.nextAt, true
}

// Step issues the accesses of every core due at or before now, running
// cores and re-armed stalled writers alike, in core index order. When the
// cached deadline says no core is due yet, the scan is skipped. Otherwise
// one pass over the deadlines collects the due cores of each block of 64
// into a mask, and Step issues its set bits: an issue moves only its own
// core's deadlines, so the mask taken before the first issue is the set a
// per-core check would find.
func (cl *Cluster) Step(now int64, mem MemPort) error {
	if !cl.valid {
		cl.recompute()
	}
	if cl.stepAt > now {
		return nil
	}
	for base := 0; base < len(cl.runAt); base += 64 {
		for due := cl.dueMask(base, now); due != 0; due &= due - 1 {
			if err := cl.issue(base+bits.TrailingZeros64(due), now, mem); err != nil {
				return err
			}
		}
	}
	return nil
}

// dueMask returns the cores base to base+63 whose issue or retry time is
// at or before now, core base+j as bit j.
func (cl *Cluster) dueMask(base int, now int64) uint64 {
	runAt := cl.runAt[base:min(base+64, len(cl.runAt))]
	stallAt := cl.stallAt[base:][:len(runAt)]
	var due uint64
	for j, at := range runAt {
		var bit uint64
		if min(at, stallAt[j]) <= now {
			bit = 1
		}
		due |= bit << j
	}
	return due
}

// issue sends core i's pending access; Step calls it only when the core's
// deadline is at or before now.
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
			cl.runAt[i], cl.stallAt[i], cl.valid = never, now, false
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
	cl.waitIDs = append(cl.waitIDs, id)
	cl.waitCores = append(cl.waitCores, i)
	if c.outstanding >= cl.cfg.MLP {
		// Window full: stall until a completion frees a slot.
		c.state = coreWaitingRead
		cl.runAt[i], cl.valid = never, false
		return nil
	}
	return cl.fetch(i, now)
}

// OnReadComplete retires an outstanding read, resuming the core if the
// completion freed a full MLP window.
func (cl *Cluster) OnReadComplete(id uint64, at int64) error {
	idx := slices.Index(cl.waitIDs, id)
	if idx < 0 {
		return fmt.Errorf("cpu: completion for unknown request %d", id)
	}
	i := cl.waitCores[idx]
	last := len(cl.waitIDs) - 1
	cl.waitIDs[idx], cl.waitCores[idx] = cl.waitIDs[last], cl.waitCores[last]
	cl.waitIDs, cl.waitCores = cl.waitIDs[:last], cl.waitCores[:last]
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
	for i, at := range cl.stallAt {
		if at < now {
			cl.stallAt[i], cl.valid = now, false
		}
	}
}

// Stalled reports whether any core waits on a full write queue, which
// only RetryAt re-arms.
func (cl *Cluster) Stalled() bool { return cl.stalledWrites > 0 }

// TotalRetired sums retired instructions across cores.
func (cl *Cluster) TotalRetired() uint64 { return cl.retired }

// AllDone reports whether every core retired its budget.
func (cl *Cluster) AllDone() bool { return cl.done == len(cl.cores) }

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
