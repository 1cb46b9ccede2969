package main

import (
	"fmt"
	"time"

	"readduo/internal/cpu"
	"readduo/internal/energy"
	"readduo/internal/memctrl"
	"readduo/internal/sense"
	"readduo/internal/trace"
)

// The replay splits a simulation job's host time between the CPU front
// end and the memory controller using only their exported functions. It
// drives a cpu.Cluster over the job's exact record stream and a
// memctrl.Controller the way the simulator's serial event loop does,
// with a fixed read mode, full-line writes and a scrub hook that
// rewrites at the job's measured rate. It stands in for the design's
// sense and write policies, so its split estimates the layers' cost on
// that stream rather than reproducing the job. Run once, it records every
// controller call; replaying the record against a fresh controller
// times the controller alone.

// sliceSource serves pre-generated per-core records to a cpu.Cluster.
type sliceSource struct {
	recs [][]trace.Record
	pos  []int
}

func newSliceSource(recs [][]trace.Record) *sliceSource {
	return &sliceSource{recs: recs, pos: make([]int, len(recs))}
}

func (s *sliceSource) Next(core int) (trace.Record, error) {
	if s.pos[core] >= len(s.recs[core]) {
		return trace.Record{}, fmt.Errorf("replay: core %d ran past its %d recorded records", core, len(s.recs[core]))
	}
	r := s.recs[core][s.pos[core]]
	s.pos[core]++
	return r, nil
}

type callKind uint8

const (
	callNextEvent callKind = iota
	callAdvance
	callRead
	callWrite
)

// call is one recorded controller call with what it returned.
type call struct {
	kind callKind
	ok   bool   // NextEventAt's ok, or EnqueueWrite's acceptance
	t    int64  // NextEventAt's result, AdvanceTo's target, or the enqueue time
	id   uint64 // read id
	line uint64
	n    int // write cells, or the number of completions AdvanceTo returned
}

// scrubCall is one recorded scrub-hook invocation and its answer.
type scrubCall struct {
	now  int64
	line uint64
	act  memctrl.ScrubAction
}

// callLog is the controller's side of one replay, in call order.
type callLog struct {
	calls  []call
	comps  []memctrl.Completion // AdvanceTo results, concatenated
	scrubs []scrubCall
}

// replayScrub answers scrub visits with a full-line rewrite on a fixed
// share of visits, spread evenly, and records what it answered.
type replayScrub struct {
	act     memctrl.ScrubAction
	rewrite float64 // share of visits that rewrite
	acc     float64
	log     *callLog
}

func (h *replayScrub) OnScrub(now int64, line uint64) memctrl.ScrubAction {
	act := h.act
	h.acc += h.rewrite
	if h.acc >= 1 {
		h.acc--
		act.Rewrite = true
	}
	if h.log != nil {
		h.log.scrubs = append(h.log.scrubs, scrubCall{now: now, line: line, act: act})
	}
	return act
}

// replayPort is the cluster's memory port: it maps trace lines onto
// physical lines, issues every read in one mode and every write as a
// full line, and records the calls when a log is attached.
type replayPort struct {
	ctrl   *memctrl.Controller
	lines  uint64
	seed   uint64
	cells  int
	nextID uint64
	log    *callLog
}

func (p *replayPort) phys(line uint64) uint64 {
	x := line ^ p.seed
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return (x ^ (x >> 31)) % p.lines
}

func (p *replayPort) Read(now int64, _ int, line uint64) (uint64, error) {
	p.nextID++
	phys := p.phys(line)
	if p.log != nil {
		p.log.calls = append(p.log.calls, call{kind: callRead, t: now, id: p.nextID, line: phys})
	}
	return p.nextID, p.ctrl.EnqueueRead(now, p.nextID, phys, sense.ModeR)
}

func (p *replayPort) Write(now int64, _ int, line uint64) (bool, error) {
	phys := p.phys(line)
	ok := p.ctrl.EnqueueWrite(now, phys, p.cells)
	if p.log != nil {
		p.log.calls = append(p.log.calls, call{kind: callWrite, t: now, line: phys, n: p.cells, ok: ok})
	}
	return ok, nil
}

func (p *replayPort) nextEventAt() (int64, bool) {
	t, ok := p.ctrl.NextEventAt()
	if p.log != nil {
		p.log.calls = append(p.log.calls, call{kind: callNextEvent, t: t, ok: ok})
	}
	return t, ok
}

func (p *replayPort) advanceTo(t int64, scratch []memctrl.Completion) []memctrl.Completion {
	comps := p.ctrl.AdvanceTo(t, scratch)
	if p.log != nil {
		p.log.calls = append(p.log.calls, call{kind: callAdvance, t: t, n: len(comps)})
		p.log.comps = append(p.log.comps, comps...)
	}
	return comps
}

// replayJob is one job's replay input.
type replayJob struct {
	recs    [][]trace.Record
	cpu     cpu.Config
	mem     memctrl.Config // ScrubInterval set from the design's plan
	scan    memctrl.ScrubAction
	rewrite float64
	seed    int64
}

func newController(mem memctrl.Config, hook memctrl.ScrubHook) (*memctrl.Controller, error) {
	acct, err := energy.NewAccounting(energy.DefaultParams())
	if err != nil {
		return nil, err
	}
	if mem.ScrubInterval == 0 {
		hook = nil
	}
	return memctrl.NewController(mem, acct, hook)
}

// recordedScrub answers scrub visits from a recorded sequence and counts
// visits that arrive out of step with it.
type recordedScrub struct {
	scrubs     []scrubCall
	next       int
	mismatches int
}

func (h *recordedScrub) OnScrub(now int64, line uint64) memctrl.ScrubAction {
	if h.next >= len(h.scrubs) {
		h.mismatches++
		return memctrl.ScrubAction{}
	}
	s := h.scrubs[h.next]
	h.next++
	if s.now != now || s.line != line {
		h.mismatches++
	}
	return s.act
}

// runCombined drives the cluster and a fresh controller through the
// job's records, mirroring the simulator's serial loop, and returns the
// number of cluster calls made. A non-nil log records every controller
// call.
func runCombined(j replayJob, log *callLog) (cpuCalls int, err error) {
	ctrl, err := newController(j.mem, &replayScrub{act: j.scan, rewrite: j.rewrite, log: log})
	if err != nil {
		return 0, err
	}
	defer ctrl.Close()
	port := &replayPort{ctrl: ctrl, lines: j.mem.TotalLines, seed: uint64(j.seed), cells: j.mem.CellsPerLine, log: log}
	cl, err := cpu.NewCluster(j.cpu, newSliceSource(j.recs))
	if err != nil {
		return 0, err
	}
	var now int64
	var scratch []memctrl.Completion
	for {
		cpuCalls += 2
		if cl.AllDone() {
			return cpuCalls, nil
		}
		tCPU, okCPU := cl.NextActionAt()
		tMem, okMem := port.nextEventAt()
		var t int64
		switch {
		case okCPU && okMem:
			t = min(tCPU, tMem)
		case okCPU:
			t = tCPU
		case okMem:
			t = tMem
		default:
			return cpuCalls, fmt.Errorf("replay: deadlock at %d ps", now)
		}
		t = max(t, now)
		progressed := t > now
		now = t
		comps := port.advanceTo(t, scratch)
		scratch = comps
		for _, c := range comps {
			cpuCalls++
			if err := cl.OnReadComplete(c.ID, c.At); err != nil {
				return cpuCalls, err
			}
		}
		if progressed || len(comps) > 0 {
			cpuCalls++
			cl.RetryAt(now)
		}
		cpuCalls++
		if err := cl.Step(now, port); err != nil {
			return cpuCalls, err
		}
	}
}

// replayController feeds a recorded call sequence to a fresh controller
// and counts the calls whose results differ from the record.
func replayController(mem memctrl.Config, log *callLog) (mismatches int, err error) {
	hook := &recordedScrub{scrubs: log.scrubs}
	ctrl, err := newController(mem, hook)
	if err != nil {
		return 0, err
	}
	defer ctrl.Close()
	var scratch []memctrl.Completion
	ci := 0
	for _, c := range log.calls {
		switch c.kind {
		case callNextEvent:
			if t, ok := ctrl.NextEventAt(); t != c.t || ok != c.ok {
				mismatches++
			}
		case callAdvance:
			scratch = ctrl.AdvanceTo(c.t, scratch)
			want := log.comps[ci : ci+c.n]
			ci += c.n
			if len(scratch) != len(want) {
				mismatches++
				continue
			}
			for k := range want {
				if scratch[k] != want[k] {
					mismatches++
					break
				}
			}
		case callRead:
			if ctrl.EnqueueRead(c.t, c.id, c.line, sense.ModeR) != nil {
				mismatches++
			}
		case callWrite:
			if ctrl.EnqueueWrite(c.t, c.line, c.n) != c.ok {
				mismatches++
			}
		}
	}
	return mismatches + hook.mismatches + len(hook.scrubs) - hook.next, nil
}

// replayResult is one job's host-time split.
type replayResult struct {
	combined, memctrl  time.Duration
	memCalls, cpuCalls int
	mismatches         int
}

// replaySplit times the combined replay, records it once more, then
// times the controller alone on the record.
func replaySplit(j replayJob) (replayResult, error) {
	var r replayResult
	t0 := time.Now()
	if _, err := runCombined(j, nil); err != nil {
		return r, err
	}
	r.combined = time.Since(t0)
	log := &callLog{}
	cpuCalls, err := runCombined(j, log)
	if err != nil {
		return r, err
	}
	r.cpuCalls, r.memCalls = cpuCalls, len(log.calls)
	t0 = time.Now()
	r.mismatches, err = replayController(j.mem, log)
	r.memctrl = time.Since(t0)
	return r, err
}
