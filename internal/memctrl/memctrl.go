// Package memctrl implements the event-driven PCM memory-system model
// behind the ReadDuo evaluation: line-interleaved banks, per-bank read and
// write queues with read priority and forced-drain hysteresis, write
// cancellation (reads preempt in-flight writes, per the paper's adoption of
// [18]), and a scrub walker that visits every line once per scrub interval
// and consumes bank bandwidth exactly at the configured rate.
//
// Time is measured in integer picoseconds so a 2 GHz core's 0.5 ns
// instruction slot stays exact.
package memctrl

import (
	"fmt"
	"math"
	"time"

	"readduo/internal/energy"
	"readduo/internal/sense"
)

// PS converts a time.Duration to picoseconds.
func PS(d time.Duration) int64 { return d.Nanoseconds() * 1000 }

// Config describes the memory organization and policies.
type Config struct {
	// Banks is the number of independent PCM banks (line-interleaved).
	Banks int
	// TotalLines is the memory capacity in 64-byte lines.
	TotalLines uint64
	// Timing supplies the sensing/programming latencies.
	Timing sense.Timing
	// CellsPerLine is the MLC cell count of one protected line (data +
	// ECC), the unit of read energy.
	CellsPerLine int
	// WriteQueueCap bounds each bank's write queue; a full queue
	// backpressures the producer.
	WriteQueueCap int
	// WriteDrainHi/Lo are the forced-drain hysteresis thresholds: at Hi
	// the bank prioritizes writes over reads until the queue falls to Lo.
	WriteDrainHi, WriteDrainLo int
	// CancelWrites enables write cancellation: a demand read arriving at
	// a bank whose in-flight op is a write restarts that write later.
	CancelWrites bool
	// CancelThreshold is the completed fraction below which an in-flight
	// write is still worth cancelling.
	CancelThreshold float64
	// ScrubInterval is S — every line is visited once per interval.
	// Zero disables scrubbing.
	ScrubInterval time.Duration
}

// DefaultConfig returns the Table VIII-style baseline: 4 GB of MLC PCM in 8
// banks, BCH-8 line layout, write cancellation on.
func DefaultConfig() Config {
	return Config{
		Banks:           8,
		TotalLines:      1 << 26, // 4 GB / 64 B
		Timing:          sense.DefaultTiming(),
		CellsPerLine:    296,
		WriteQueueCap:   64,
		WriteDrainHi:    48,
		WriteDrainLo:    16,
		CancelWrites:    true,
		CancelThreshold: 0.75,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Banks < 1 {
		return fmt.Errorf("memctrl: need at least one bank")
	}
	if c.TotalLines < uint64(c.Banks) {
		return fmt.Errorf("memctrl: %d lines cannot cover %d banks", c.TotalLines, c.Banks)
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.CellsPerLine <= 0 {
		return fmt.Errorf("memctrl: cells per line must be positive")
	}
	if c.WriteQueueCap < 1 || c.WriteDrainHi > c.WriteQueueCap || c.WriteDrainLo < 0 ||
		c.WriteDrainLo >= c.WriteDrainHi {
		return fmt.Errorf("memctrl: write queue thresholds inconsistent: cap=%d hi=%d lo=%d",
			c.WriteQueueCap, c.WriteDrainHi, c.WriteDrainLo)
	}
	if c.CancelThreshold < 0 || c.CancelThreshold > 1 {
		return fmt.Errorf("memctrl: cancel threshold %v outside [0,1]", c.CancelThreshold)
	}
	if c.ScrubInterval < 0 {
		return fmt.Errorf("memctrl: negative scrub interval")
	}
	return nil
}

// ScrubAction tells the controller what one scrub visit does.
type ScrubAction struct {
	// ReadLatency is the scan read's bank occupancy.
	ReadLatency time.Duration
	// Voltage marks the scan as M-sensing for energy accounting.
	Voltage bool
	// Rewrite schedules a full-line rewrite after the scan.
	Rewrite bool
	// CellsWritten is the rewrite's programming size.
	CellsWritten int
}

// ScrubHook lets the scheme decide per-line scrub behavior (scan metric,
// W-policy rewrite decision, flag bookkeeping).
type ScrubHook interface {
	OnScrub(now int64, line uint64) ScrubAction
}

// Completion reports a finished demand read.
type Completion struct {
	ID uint64
	At int64 // ps
}

// Stats aggregates controller activity.
type Stats struct {
	Reads            uint64
	ReadsByMode      [4]uint64 // indexed by sense.Mode
	ReadLatencySumPS int64
	Writes           uint64
	WriteCells       uint64
	ScrubReads       uint64
	ScrubWrites      uint64
	ScrubWriteCells  uint64
	Cancellations    uint64
	BankBusyPS       int64
	WriteQueueStalls uint64
}

// Sub returns the counter-wise difference s - base, used to report a
// measurement window that excludes simulator warmup.
func (s Stats) Sub(base Stats) Stats {
	out := Stats{
		Reads:            s.Reads - base.Reads,
		ReadLatencySumPS: s.ReadLatencySumPS - base.ReadLatencySumPS,
		Writes:           s.Writes - base.Writes,
		WriteCells:       s.WriteCells - base.WriteCells,
		ScrubReads:       s.ScrubReads - base.ScrubReads,
		ScrubWrites:      s.ScrubWrites - base.ScrubWrites,
		ScrubWriteCells:  s.ScrubWriteCells - base.ScrubWriteCells,
		Cancellations:    s.Cancellations - base.Cancellations,
		BankBusyPS:       s.BankBusyPS - base.BankBusyPS,
		WriteQueueStalls: s.WriteQueueStalls - base.WriteQueueStalls,
	}
	for i := range out.ReadsByMode {
		out.ReadsByMode[i] = s.ReadsByMode[i] - base.ReadsByMode[i]
	}
	return out
}

// AvgReadLatency returns the mean demand-read latency.
func (s Stats) AvgReadLatency() time.Duration {
	if s.Reads == 0 {
		return 0
	}
	return time.Duration(s.ReadLatencySumPS/int64(s.Reads)) * time.Nanosecond / 1000
}

type opKind uint8

const (
	opRead opKind = iota + 1
	opWrite
	opScrubRead
	opScrubWrite
)

// op is one queued or in-flight bank operation. It is copied by value on
// every queue push and pop and on dispatch, so its fields are narrowed to
// keep it at 48 bytes: copies of up to 64 bytes compile to inline moves,
// larger ones to a runtime.duffcopy call.
type op struct {
	id           uint64
	line         uint64
	latencyPS    int64
	enqueuedAt   int64
	cells        int32
	rewriteCells int32
	kind         opKind
	mode         uint8 // sense.Mode of a read or scrub scan
	rewriteAfter bool  // scrub read: enqueue rewrite on completion
}

// opQueue is a growable ring buffer of ops. The steady-state loop pops
// from the front and pushes to the back millions of times; a plain slice
// either loses its capacity to resliced pops or allocates on every
// cancellation push-front, so the ring keeps one power-of-two backing
// array and wraps. The zero opQueue is ready to use.
type opQueue struct {
	buf  []op // len(buf) is always zero or a power of two
	head int
	n    int
}

func (q *opQueue) len() int { return q.n }

func (q *opQueue) pushBack(o op) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = o
	q.n++
}

// pushFront is the write-cancellation path: a paused write returns to the
// head of its queue in O(1), where the slice implementation re-allocated
// the whole queue.
func (q *opQueue) pushFront(o op) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = o
	q.n++
}

func (q *opQueue) popFront() op {
	o := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return o
}

func (q *opQueue) grow() {
	newCap := 2 * len(q.buf)
	if newCap == 0 {
		newCap = 8
	}
	nb := make([]op, newCap)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = nb, 0
}

type bank struct {
	idx    int
	readQ  opQueue
	writeQ opQueue
	// inflight is the running op and startedAt its start, meaningful only
	// while the bank's busyUntil is not never. inflight is stored by value:
	// a pointer to the dispatched op cost a heap allocation per op.
	inflight  op
	startedAt int64
	draining  bool

	scrubPeriod  int64 // per-line visit period within this bank
	scrubCursor  uint64
	scrubPending opQueue
	linesInBank  uint64
}

// never is the deadline of an event that does not exist: no op in flight,
// or scrubbing off.
const never = math.MaxInt64

// Controller is the memory controller plus PCM rank model.
type Controller struct {
	cfg   Config
	banks []bank
	// busyUntil[i] is bank i's in-flight completion time and scrubAt[i]
	// its next scrub arrival, never when there is none. They are the only
	// record of either, packed so the event scans touch two cache lines
	// and no bank struct.
	busyUntil   []int64
	scrubAt     []int64
	hook        ScrubHook
	acct        *energy.Accounting
	now         int64
	stats       Stats
	completions []Completion

	// minAt caches the minimum over busyUntil and scrubAt. A dispatch can
	// only lower it and does so in place; every other deadline change that
	// may raise it clears minValid, and NextEventAt and AdvanceTo rescan on
	// demand.
	minAt    int64
	minValid bool
}

// NewController builds a controller. The energy accounting sink is
// mandatory; hook may be nil when scrubbing is disabled.
func NewController(cfg Config, acct *energy.Accounting, hook ScrubHook) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if acct == nil {
		return nil, fmt.Errorf("memctrl: energy accounting is required")
	}
	if cfg.ScrubInterval > 0 && hook == nil {
		return nil, fmt.Errorf("memctrl: scrubbing enabled but no scrub hook")
	}
	c := &Controller{cfg: cfg, hook: hook, acct: acct, banks: make([]bank, cfg.Banks),
		busyUntil: make([]int64, cfg.Banks), scrubAt: make([]int64, cfg.Banks)}
	linesPerBank := cfg.TotalLines / uint64(cfg.Banks)
	for i := range c.banks {
		b := &c.banks[i]
		b.idx = i
		b.linesInBank = linesPerBank
		c.busyUntil[i], c.scrubAt[i] = never, never
		if cfg.ScrubInterval > 0 {
			b.scrubPeriod = max(PS(cfg.ScrubInterval)/int64(linesPerBank), 1)
			// Stagger bank walkers so scrub traffic doesn't pulse.
			c.scrubAt[i] = int64(i) * b.scrubPeriod / int64(cfg.Banks)
		}
	}
	return c, nil
}

// Close is a no-op: a Controller holds no goroutines or other resources.
// It stays only for callers that still defer it (perfbench's controller
// replay); new code need not call it.
func (c *Controller) Close() {}

// recomputeMin refreshes the cached minimum deadline. It runs only after
// a deadline changed; steady-state NextEventAt/AdvanceTo polling is O(1).
func (c *Controller) recomputeMin() {
	at := int64(never)
	for i, busy := range c.busyUntil {
		at = min(at, busy, c.scrubAt[i])
	}
	c.minAt, c.minValid = at, true
}

// Now returns the controller's current time (ps): the target of the last
// AdvanceTo. The simulator advances the controller only when it has an
// event due, so Now lags simulated time between events; only tests read
// it.
func (c *Controller) Now() int64 { return c.now }

// Stats returns a snapshot of accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// BankOf maps a line address to its bank.
func (c *Controller) BankOf(line uint64) int { return int(line % uint64(c.cfg.Banks)) }

// EnqueueRead submits a demand read of the given sensing mode; the
// completion surfaces from AdvanceTo. Reads may cancel an in-flight write
// on the same bank.
func (c *Controller) EnqueueRead(now int64, id, line uint64, mode sense.Mode) error {
	lat := c.cfg.Timing.Latency(mode)
	if lat <= 0 {
		return fmt.Errorf("memctrl: unsupported read mode %v", mode)
	}
	b := &c.banks[c.BankOf(line)]
	b.readQ.pushBack(op{
		kind: opRead, id: id, line: line,
		latencyPS: PS(lat), cells: int32(c.cfg.CellsPerLine), mode: uint8(mode), enqueuedAt: now,
	})
	c.maybeCancelWrite(b, now)
	c.dispatch(b, now)
	return nil
}

// EnqueueWrite submits a line write programming `cells` cells. It reports
// false when the bank's write queue is full (the producer must stall).
func (c *Controller) EnqueueWrite(now int64, line uint64, cells int) bool {
	b := &c.banks[c.BankOf(line)]
	if b.writeQ.len() >= c.cfg.WriteQueueCap {
		c.stats.WriteQueueStalls++
		return false
	}
	b.writeQ.pushBack(op{
		kind: opWrite, line: line,
		latencyPS: PS(c.cfg.Timing.Write), cells: int32(cells), enqueuedAt: now,
	})
	c.dispatch(b, now)
	return true
}

// WriteQueueSpace reports free write-queue slots for the line's bank.
func (c *Controller) WriteQueueSpace(line uint64) int {
	b := &c.banks[c.BankOf(line)]
	return c.cfg.WriteQueueCap - b.writeQ.len()
}

// NextEventAt returns the earliest pending internal event (op completion or
// scrub due), or ok=false if the controller is fully idle. It answers from
// the cached minimum; a rescan only happens after a deadline changed.
func (c *Controller) NextEventAt() (int64, bool) {
	if !c.minValid {
		c.recomputeMin()
	}
	if c.minAt == never {
		return 0, false
	}
	return c.minAt, true
}

// AdvanceTo runs the controller forward to time t, appending demand-read
// completions in time order to comps (a caller-owned scratch slice,
// truncated first) and returning it. Ties at the same instant retire
// completions before admitting scrub arrivals, so a freed bank is
// immediately re-dispatchable; tied completions retire from the highest
// bank down, tied scrub arrivals are admitted from the lowest bank up.
func (c *Controller) AdvanceTo(t int64, comps []Completion) []Completion {
	c.completions = comps[:0]
	for {
		if !c.minValid {
			c.recomputeMin()
		}
		at := c.minAt
		if at > t || at == never { // never is beyond any t, MaxInt64 included
			break
		}
		// at is the minimum over both arrays, so one of the scans finds it.
		i := len(c.busyUntil) - 1
		for i >= 0 && c.busyUntil[i] != at {
			i--
		}
		isScrub := i < 0
		if isScrub {
			for i = 0; c.scrubAt[i] != at; i++ {
			}
		}
		b := &c.banks[i]
		c.now = max(c.now, at)
		if isScrub {
			c.scrubArrive(b)
		} else {
			c.complete(b)
		}
		c.dispatch(b, c.now)
	}
	c.now = max(c.now, t)
	return c.completions
}

// scrubArrive registers the next due scrub visit as pending work.
func (c *Controller) scrubArrive(b *bank) {
	line := b.scrubCursor*uint64(c.cfg.Banks) + uint64(b.idx)
	b.scrubCursor = (b.scrubCursor + 1) % b.linesInBank
	act := c.hook.OnScrub(c.now, line)
	if act.ReadLatency <= 0 {
		act.ReadLatency = c.cfg.Timing.MRead
	}
	mode := sense.ModeR
	if act.Voltage {
		mode = sense.ModeM
	}
	b.scrubPending.pushBack(op{
		kind: opScrubRead, line: line,
		latencyPS: PS(act.ReadLatency), cells: int32(c.cfg.CellsPerLine), mode: uint8(mode),
		enqueuedAt: c.now, rewriteAfter: act.Rewrite, rewriteCells: int32(act.CellsWritten),
	})
	c.scrubAt[b.idx] += b.scrubPeriod
	c.minValid = false
}

// complete retires the bank's in-flight op.
func (c *Controller) complete(b *bank) {
	o := &b.inflight
	c.busyUntil[b.idx], c.minValid = never, false
	c.stats.BankBusyPS += o.latencyPS
	cells := int(o.cells)
	switch o.kind {
	case opRead:
		c.stats.Reads++
		if int(o.mode) < len(c.stats.ReadsByMode) {
			c.stats.ReadsByMode[o.mode]++
		}
		c.stats.ReadLatencySumPS += c.now - o.enqueuedAt
		switch sense.Mode(o.mode) {
		case sense.ModeR:
			c.acct.AddRRead(cells)
		case sense.ModeM:
			c.acct.AddMRead(cells)
		case sense.ModeRM:
			c.acct.AddRMRead(cells)
		}
		c.completions = append(c.completions, Completion{ID: o.id, At: c.now})
	case opWrite:
		c.stats.Writes++
		c.stats.WriteCells += uint64(cells)
		c.acct.AddWrite(cells)
	case opScrubRead:
		c.stats.ScrubReads++
		c.acct.AddScrubRead(cells, sense.Mode(o.mode) == sense.ModeM)
		if o.rewriteAfter {
			// Scrub rewrites ride the write queue (cancellable, drained
			// behind demand traffic). WriteQueueCap backpressures only
			// demand writes, so a full queue never stalls the walker.
			b.writeQ.pushBack(op{
				kind: opScrubWrite, line: o.line,
				latencyPS: PS(c.cfg.Timing.Write), cells: o.rewriteCells, enqueuedAt: c.now,
			})
		}
	case opScrubWrite:
		c.stats.ScrubWrites++
		c.stats.ScrubWriteCells += uint64(cells)
		c.acct.AddScrubWrite(cells)
	}
}

// dispatch starts the next op on an idle bank according to the priority
// policy: forced write drain > demand reads > scrub scans > opportunistic
// writes. Every path that changes a bank's queues or in-flight op ends
// here, so no bank is ever idle while it holds queued work.
func (c *Controller) dispatch(b *bank, now int64) {
	if c.busyUntil[b.idx] != never {
		return
	}
	if b.writeQ.n >= c.cfg.WriteDrainHi {
		b.draining = true
	}
	if b.writeQ.n <= c.cfg.WriteDrainLo {
		b.draining = false
	}
	var q *opQueue
	switch {
	case b.draining && b.writeQ.n > 0:
		q = &b.writeQ
	case b.readQ.n > 0:
		q = &b.readQ
	case b.scrubPending.n > 0:
		q = &b.scrubPending
	case b.writeQ.n > 0:
		q = &b.writeQ
	default:
		return
	}
	b.inflight = q.popFront()
	b.startedAt = now
	// The bank was idle, so its new deadline can only lower the minimum.
	at := now + b.inflight.latencyPS
	c.busyUntil[b.idx], c.minAt = at, min(c.minAt, at)
}

// maybeCancelWrite implements write cancellation with pausing (the paper
// adopts [18], whose practical form preserves completed programming
// iterations): if the bank is currently programming and the write has not
// progressed past the threshold, pause it — it returns to the head of the
// write queue carrying only its remaining latency — and let the read go
// first. Programming energy is charged once, at final completion, because
// the iterations already applied are kept.
func (c *Controller) maybeCancelWrite(b *bank, now int64) {
	if !c.cfg.CancelWrites || c.busyUntil[b.idx] == never {
		return
	}
	if k := b.inflight.kind; k != opWrite && k != opScrubWrite {
		return
	}
	ran := now - b.startedAt
	if float64(ran)/float64(b.inflight.latencyPS) >= c.cfg.CancelThreshold {
		return
	}
	c.stats.Cancellations++
	c.stats.BankBusyPS += ran
	paused := b.inflight
	paused.latencyPS = max(paused.latencyPS-ran, 1)
	if c.busyUntil[b.idx] == c.minAt {
		c.minValid = false
	}
	c.busyUntil[b.idx] = never
	b.writeQ.pushFront(paused)
}
