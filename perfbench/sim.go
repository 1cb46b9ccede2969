package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"readduo/internal/campaign"
	"readduo/internal/cpu"
	"readduo/internal/drift"
	"readduo/internal/memctrl"
	"readduo/internal/sense"
	"readduo/internal/sim"
	"readduo/internal/telemetry"
	"readduo/internal/trace"
)

// simWorkload is a closed batch of simulation jobs run through
// campaign.Run, repeated over replicate seeds until the run's time is
// spent.
type simWorkload struct {
	benches    []string
	schemes    []string  // design specs at the default 300 K
	temps      []float64 // temperature axis; nil runs 300 K only
	budget     uint64    // instructions per core
	replicates int       // replicate seeds per campaign.Run
	replay     bool      // split cpu and memctrl time by replay
}

var paperDesigns = []string{"Ideal", "Scrubbing", "M-metric", "TLC", "Hybrid", "LWT-4", "Select-4:2"}

var simWorkloads = map[string]simWorkload{
	// The Figure-9 matrix at the readduo-sim default budget.
	"sim-read": {
		benches: []string{"mcf", "sphinx3", "corpus:scan"},
		schemes: paperDesigns, budget: 2_000_000, replicates: 1, replay: true,
	},
	// Write-dominated profiles: queue backpressure, drains,
	// cancellation, SDW/LWC write plans and scrub rewrites.
	"sim-write": {
		benches: []string{"lbm", "corpus:write-heavy"},
		schemes: []string{"Ideal", "Scrubbing", "TLC", "LWT-4", "Select-4:2", "lwc:r=8"},
		budget:  2_000_000, replicates: 1, replay: true,
	},
	// Short jobs at the /v1/compare default budget across a temperature
	// axis: engine construction and closed-form table builds dominate.
	"sim-sweep": {
		benches: []string{"gcc", "hmmer", "astar"},
		schemes: paperDesigns, temps: []float64{250, 275, 300, 325, 350},
		budget: 25_000, replicates: 4,
	},
}

// pinnedSeeds is how many campaign replicate seeds (1..pinnedSeeds) have
// pinned result digests. A workload seed picks where in that ring its
// replicate sequence starts, so every job any seed runs is pinned.
const pinnedSeeds = 16

func (w simWorkload) tempAxis() []float64 {
	if len(w.temps) == 0 {
		return []float64{drift.DefaultTempK}
	}
	return w.temps
}

// designs returns the scheme list at one temperature.
func (w simWorkload) designs(tempK float64) ([]sim.Scheme, error) {
	var out []sim.Scheme
	for _, spec := range w.schemes {
		sch, err := sim.Parse(spec)
		if err != nil {
			return nil, err
		}
		if tempK != drift.DefaultTempK {
			if sch, err = sch.AtEnv(sim.Environment{TempK: tempK}); err != nil {
				return nil, err
			}
		}
		out = append(out, sch)
	}
	return out, nil
}

// batchSeeds returns the campaign replicate seeds of batch b.
func (w simWorkload) batchSeeds(seed int64, b int) []int64 {
	out := make([]int64, w.replicates)
	for j := range out {
		k := (seed + int64(b*w.replicates+j)) % pinnedSeeds
		if k < 0 {
			k += pinnedSeeds
		}
		out[j] = k + 1
	}
	return out
}

func (w simWorkload) spec(seeds []int64) (campaign.Spec, error) {
	spec := campaign.Spec{Seeds: seeds, Budget: w.budget}
	for _, name := range w.benches {
		b, ok := trace.ByName(name)
		if !ok {
			return spec, fmt.Errorf("unknown benchmark %q", name)
		}
		spec.Benchmarks = append(spec.Benchmarks, b)
	}
	for _, t := range w.tempAxis() {
		d, err := w.designs(t)
		if err != nil {
			return spec, err
		}
		spec.Schemes = append(spec.Schemes, d...)
	}
	return spec, spec.Validate()
}

func (w simWorkload) jobsPerSeed() int {
	return len(w.benches) * len(w.schemes) * len(w.tempAxis())
}

// resultDigest fingerprints a job's full Result.
func resultDigest(r *sim.Result) string {
	buf, err := json.Marshal(r)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	h := fnv.New64a()
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// setupSim purges the process-wide probability memo and builds every
// table the workload's jobs use, with one 1-instruction run of each
// design at each temperature. It returns the cold build time per
// temperature.
func setupSim(w simWorkload) (map[float64]time.Duration, error) {
	sim.PurgeSharedCaches()
	bench, ok := trace.ByName(w.benches[0])
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", w.benches[0])
	}
	cold := map[float64]time.Duration{}
	for _, t := range w.tempAxis() {
		designs, err := w.designs(t)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for _, sch := range designs {
			cfg := sim.DefaultConfig(bench)
			cfg.CPU.InstrBudget = 1
			if _, err := sim.Run(cfg, sch); err != nil {
				return nil, fmt.Errorf("table build %s: %w", sch.Name(), err)
			}
		}
		cold[t] = time.Since(start)
	}
	return cold, nil
}

// countingSource counts the records each core consumes from the job's
// own generator, so a traced job runs on exactly its untraced stream.
type countingSource struct {
	src    cpu.Source
	counts []int
}

func (c *countingSource) Next(core int) (trace.Record, error) {
	c.counts[core]++
	return c.src.Next(core)
}

// simPhase is one pass over a sequence of campaign batches.
type simPhase struct {
	batches   int
	elapsed   time.Duration // sum of campaign.Run wall times
	jobs      int
	failed    int // failed jobs
	mismatch  int // results that differ from their pinned digest
	walls     []float64
	instr     uint64
	rates     []float64        // each batch's simulated Minstr per second, calibrated
	rawRates  []float64        // the same, as measured
	cals      []float64        // calibrations: how much slower than the reference the host ran
	records   map[string][]int // job key -> records per core (traced only)
	firstRecs []campaign.Record
	firstSnap telemetry.Snapshot
	firstHits uint64 // probability-memo hits during the first batch
	problems  []string
}

func (p *simPhase) problem(format string, args ...any) {
	if len(p.problems) < 5 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// calEvery is how much campaign time may pass between calibrations; a
// batch is scaled by the latest one.
const calEvery = 500 * time.Millisecond

// runSimPhase runs batches until seconds have been spent in campaign.Run
// (at least one batch), or exactly fixedBatches when that is positive.
// A non-nil registry traces the phase: sim and campaign telemetry on,
// and every job's record stream counted.
func runSimPhase(w simWorkload, seed int64, seconds time.Duration, fixedBatches int,
	reg *telemetry.Registry, digests map[string][]string) (*simPhase, error) {
	p := &simPhase{records: map[string][]int{}}
	var mu sync.Mutex
	var cal float64
	sinceCal := calEvery
	for b := 0; ; b++ {
		if fixedBatches > 0 && b == fixedBatches {
			break
		}
		if fixedBatches == 0 && b > 0 && p.elapsed >= seconds {
			break
		}
		seeds := w.batchSeeds(seed, b)
		spec, err := w.spec(seeds)
		if err != nil {
			return nil, err
		}
		if reg != nil {
			spec.Configure = func(job campaign.Job, cfg *sim.Config) {
				gen, err := trace.NewGenerator(cfg.Bench, cfg.CPU.Cores, cfg.Seed)
				if err != nil {
					return // the job then builds its own generator and fails the same way
				}
				src := &countingSource{src: gen, counts: make([]int, cfg.CPU.Cores)}
				cfg.Source = src
				if b == 0 {
					mu.Lock()
					p.records[job.Key()] = src.counts
					mu.Unlock()
				}
			}
		}
		if sinceCal >= calEvery {
			cal, sinceCal = calibrate(), 0
			p.cals = append(p.cals, cal)
		}
		hits0, _, _ := sim.CacheStats()
		start := time.Now()
		out, err := campaign.Run(context.Background(), spec, campaign.Options{
			Parallel: runtime.GOMAXPROCS(0), Telemetry: reg,
		})
		batch := time.Since(start)
		p.elapsed += batch
		sinceCal += batch
		if err != nil {
			return nil, err
		}
		p.batches++
		rate := float64(len(out.Records)) * float64(w.budget*uint64(cpu.DefaultConfig().Cores)) / batch.Seconds() / 1e6
		p.rawRates = append(p.rawRates, rate)
		p.rates = append(p.rates, calibratedRate(rate, cal))
		if b == 0 {
			hits1, _, _ := sim.CacheStats()
			p.firstHits = hits1 - hits0
			p.firstRecs = out.Records
			p.firstSnap = reg.Snapshot()
		}
		per := w.jobsPerSeed()
		for _, rec := range out.Records {
			p.jobs++
			if rec.Status != campaign.StatusOK || rec.Result == nil {
				p.failed++
				p.problem("job %s failed: %s", rec.Key, rec.Error)
				continue
			}
			p.walls = append(p.walls, rec.WallMS)
			p.instr += w.budget * uint64(cpu.DefaultConfig().Cores)
			want := digests[fmt.Sprint(seeds[rec.SeedIndex])]
			pos := rec.Index - rec.SeedIndex*per
			if pos >= len(want) || resultDigest(rec.Result) != want[pos] {
				p.mismatch++
				p.problem("job %s (seed %d) differs from its pinned digest", rec.Key, seeds[rec.SeedIndex])
			}
		}
		if out.Remaining != 0 {
			p.failed += out.Remaining
			p.problem("batch %d: %d jobs never ran", b, out.Remaining)
		}
	}
	return p, nil
}

// pinDigests runs every pinned replicate seed of a workload once and
// returns the digests runSimPhase checks against.
func pinDigests(w simWorkload) (map[string][]string, error) {
	if _, err := setupSim(w); err != nil {
		return nil, err
	}
	out := map[string][]string{}
	for s := int64(1); s <= pinnedSeeds; s++ {
		spec, err := w.spec([]int64{s})
		if err != nil {
			return nil, err
		}
		res, err := campaign.Run(context.Background(), spec, campaign.Options{Parallel: runtime.GOMAXPROCS(0)})
		if err != nil {
			return nil, err
		}
		for _, rec := range res.Records {
			if rec.Status != campaign.StatusOK {
				return nil, fmt.Errorf("pin %s: %s", rec.Key, rec.Error)
			}
			out[fmt.Sprint(s)] = append(out[fmt.Sprint(s)], resultDigest(rec.Result))
		}
	}
	return out, nil
}

// runSim runs one simulation workload and fills the report.
func runSim(rep *report, name string, w simWorkload, opt options) error {
	digests, err := pinnedDigests(name)
	if err != nil {
		return err
	}
	var (
		setups, rawSetups []float64
		cold              map[float64]time.Duration
		misses            uint64
	)
	for i := 0; i < setupRepeats; i++ {
		_, m0, _ := sim.CacheStats()
		raw, scaled, err := timeCalibrated(func() (err error) {
			cold, err = setupSim(w)
			return err
		})
		if err != nil {
			return err
		}
		rawSetups = append(rawSetups, raw)
		setups = append(setups, scaled)
		_, m1, _ := sim.CacheStats()
		misses = m1 - m0
	}
	rep.e2e("setup_s", median(setups))

	untraced, err := runSimPhase(w, opt.seed, opt.seconds, 0, nil, digests)
	if err != nil {
		return err
	}
	rep.addSimPhase(untraced)
	// Each batch is one replicate's matrix; the median batch rate keeps a
	// transient host stall from moving the run's figure.
	rep.e2e("sim_minstr_per_s", median(untraced.rates))
	idle := 1 - sum(untraced.walls)/1000/(untraced.elapsed.Seconds()*float64(runtime.GOMAXPROCS(0)))
	q := quartiles(untraced.rates)
	rep.note("%s: %d batches, %d jobs, %.3f s in campaign.Run (%.1f Minstr/s overall), pool idle %.1f%%; calibrated batch Minstr/s quartiles %.1f %.1f %.1f",
		name, untraced.batches, untraced.jobs, untraced.elapsed.Seconds(),
		float64(untraced.instr)/untraced.elapsed.Seconds()/1e6, 100*idle, q[0], q[1], q[2])
	rep.note("as measured: setup %.4f s, %.2f Minstr/s (medians); calibration median %.3f x the reference over %d runs",
		median(rawSetups), median(untraced.rawRates), median(untraced.cals), len(untraced.cals))

	if !opt.trace {
		return nil
	}

	reg := telemetry.NewRegistry("perfbench")
	traced, err := runSimPhase(w, opt.seed, 0, untraced.batches, reg, digests)
	if err != nil {
		return err
	}
	rep.addSimPhase(traced)
	rep.overhead = traced.elapsed.Seconds()/untraced.elapsed.Seconds() - 1
	snap := reg.Snapshot()
	c := snap.Counters
	first := traced.firstSnap.Counters

	rep.layer("campaign.idle_frac", idle)
	rep.layer("campaign.jobs_failed", float64(untraced.failed+traced.failed))
	rep.layer("sim.probcache.miss", float64(misses))
	rep.layer("sim.probcache.hit", float64(traced.firstHits))
	for _, k := range []string{"read.r", "read.m", "read.rm", "read.hybrid_retry", "read.conversion",
		"read.untracked", "write.full", "write.diff", "write.blocked", "scrub.scan", "scrub.rewrite"} {
		rep.layer("sim."+k, float64(first["sim."+k]))
	}
	if attempts := first["sim.write.full"] + first["sim.write.diff"] + first["sim.write.blocked"]; attempts > 0 {
		rep.layer("sim.write.blocked_ratio", float64(first["sim.write.blocked"])/float64(attempts))
	}
	events := c["sim.read.r"] + c["sim.read.m"] + c["sim.read.rm"] + c["sim.write.full"] +
		c["sim.write.diff"] + c["sim.scrub.scan"] + c["sim.scrub.rewrite"]
	if events > 0 {
		rep.layer("sim.host_ns_per_event", sum(untraced.walls)*1e6/float64(events))
		rep.layer("sim.events_per_kinstr", float64(events)/(float64(traced.instr)/1000))
	}
	var coldMS []float64
	for _, d := range cold {
		coldMS = append(coldMS, float64(d)/float64(time.Millisecond))
	}
	rep.layer("reliability.cold_build_ms", mean(coldMS))

	// Layer measurements on the fixed set: the first batch's jobs.
	set := traced.firstRecs
	var mem memctrl.Stats
	var execPS int64
	var recordTotal int
	for _, rec := range set {
		if rec.Result == nil {
			continue
		}
		m := rec.Result.Mem
		mem.Reads += m.Reads
		mem.Writes += m.Writes
		mem.Cancellations += m.Cancellations
		mem.WriteQueueStalls += m.WriteQueueStalls
		mem.ScrubReads += m.ScrubReads
		mem.ScrubWrites += m.ScrubWrites
		mem.ReadLatencySumPS += m.ReadLatencySumPS
		mem.BankBusyPS += m.BankBusyPS
		execPS += rec.Result.ExecTime.Nanoseconds() * 1000
		for _, n := range traced.records[rec.Key] {
			recordTotal += n
		}
	}
	rep.layer("memctrl.reads", float64(mem.Reads))
	rep.layer("memctrl.writes", float64(mem.Writes))
	rep.layer("memctrl.cancellations", float64(mem.Cancellations))
	rep.layer("memctrl.write_queue_stalls", float64(mem.WriteQueueStalls))
	rep.layer("memctrl.scrub_reads", float64(mem.ScrubReads))
	rep.layer("memctrl.scrub_writes", float64(mem.ScrubWrites))
	if execPS > 0 {
		rep.layer("memctrl.bank_busy_frac", float64(mem.BankBusyPS)/(float64(execPS)*float64(memctrl.DefaultConfig().Banks)))
	}
	if mem.Reads > 0 {
		rep.layer("memctrl.read_latency_ns", float64(mem.ReadLatencySumPS)/float64(mem.Reads)/1000)
	}
	if len(set) > 0 {
		rep.layer("trace.records", float64(recordTotal)/float64(len(set)))
	}

	lt, err := measureSimLayers(w, set, traced.records)
	if err != nil {
		return err
	}
	rep.layer("trace.gen_ns", lt.genNSPerRecord)
	rep.layer("sim.construct_us", lt.constructUS)
	if w.replay {
		rep.layer("memctrl.call_ns", lt.memctrlNSPerCall)
		rep.layer("cpu.call_ns", lt.cpuNSPerCall)
		if lt.replayMismatches > 0 {
			rep.fail(lt.replayMismatches, "memctrl replay diverged from its recorded calls %d times", lt.replayMismatches)
		}
	}

	// Ledger: worker-seconds of the untraced phase, split by layer using
	// the fixed set's per-job costs scaled to the phase's job count.
	total := untraced.elapsed.Seconds() * float64(runtime.GOMAXPROCS(0))
	perJob := float64(untraced.jobs)
	rep.ledgerTotal = total
	rep.ledger("campaign (pool idle)", total-sum(untraced.walls)/1000, "count")
	rep.ledger("sim.construct", lt.constructUS*1e-6*perJob, "bulk-timed")
	rep.ledger("trace", lt.genNSPerRecord*1e-9*float64(recordTotal)/float64(max(1, len(set)))*perJob, "bulk-timed")
	if w.replay {
		rep.ledger("cpu", lt.cpuSecPerJob*perJob, "replay")
		rep.ledger("memctrl", lt.memctrlSecPerJob*perJob, "replay")
	}
	return nil
}

// simLayers are the per-layer costs measured on a workload's fixed set.
type simLayers struct {
	genNSPerRecord   float64
	constructUS      float64
	memctrlNSPerCall float64
	cpuNSPerCall     float64
	memctrlSecPerJob float64
	cpuSecPerJob     float64
	replayMismatches int
}

// layerReps is how many times each bulk layer timing repeats; the
// median is kept.
const layerReps = 3

// measureSimLayers times the trace generator, engine construction and,
// for long jobs, the cpu/memctrl replay over the fixed set's jobs, each
// in bulk so clock reads stay out of the per-call figures.
func measureSimLayers(w simWorkload, set []campaign.Record, records map[string][]int) (simLayers, error) {
	var out simLayers
	type job struct {
		bench  trace.Benchmark
		scheme sim.Scheme
		seed   int64
		counts []int
		res    *sim.Result
	}
	var jobs []job
	totalRecords := 0
	for _, rec := range set {
		if rec.Result == nil {
			continue
		}
		b, ok := trace.ByName(rec.Benchmark)
		if !ok {
			return out, fmt.Errorf("unknown benchmark %q", rec.Benchmark)
		}
		sch, err := sim.Parse(rec.Scheme)
		if err != nil {
			return out, err
		}
		counts := records[rec.Key]
		for _, n := range counts {
			totalRecords += n
		}
		jobs = append(jobs, job{bench: b, scheme: sch, seed: rec.Seed, counts: counts, res: rec.Result})
	}
	if len(jobs) == 0 || totalRecords == 0 {
		return out, fmt.Errorf("no traced jobs to measure")
	}
	cores := cpu.DefaultConfig().Cores

	var gen, construct []float64
	for r := 0; r < layerReps; r++ {
		// Generators are built untimed: seeding belongs to engine
		// construction, which sim.construct_us times.
		gens := make([]*trace.Generator, len(jobs))
		for i, j := range jobs {
			g, err := trace.NewGenerator(j.bench, cores, j.seed)
			if err != nil {
				return out, err
			}
			gens[i] = g
		}
		start := time.Now()
		for i, j := range jobs {
			for core, n := range j.counts {
				for k := 0; k < n; k++ {
					if _, err := gens[i].Next(core); err != nil {
						return out, err
					}
				}
			}
		}
		gen = append(gen, float64(time.Since(start).Nanoseconds())/float64(totalRecords))

		start = time.Now()
		for _, j := range jobs {
			cfg := sim.DefaultConfig(j.bench)
			cfg.Seed = j.seed
			cfg.CPU.InstrBudget = 1
			if _, err := sim.Run(cfg, j.scheme); err != nil {
				return out, err
			}
		}
		construct = append(construct, float64(time.Since(start).Microseconds())/float64(len(jobs)))
	}
	out.genNSPerRecord, out.constructUS = median(gen), median(construct)
	if !w.replay {
		return out, nil
	}

	var memSec, cpuSec float64
	var memCalls, cpuCalls int
	for _, j := range jobs {
		g, err := trace.NewGenerator(j.bench, cores, j.seed)
		if err != nil {
			return out, err
		}
		recs := make([][]trace.Record, cores)
		for core, n := range j.counts {
			recs[core] = make([]trace.Record, n)
			for k := range recs[core] {
				if recs[core][k], err = g.Next(core); err != nil {
					return out, err
				}
			}
		}
		rj := replayJob{recs: recs, cpu: cpu.DefaultConfig(), mem: memctrl.DefaultConfig(), seed: j.seed}
		rj.cpu.InstrBudget = w.budget
		interval, metric, _ := j.scheme.Scrub.Plan()
		rj.mem.ScrubInterval = interval
		rj.scan = memctrl.ScrubAction{ReadLatency: rj.mem.Timing.Latency(sense.ModeR), CellsWritten: rj.mem.CellsPerLine}
		if metric == drift.MetricM {
			rj.scan.ReadLatency, rj.scan.Voltage = rj.mem.Timing.Latency(sense.ModeM), true
		}
		if m := j.res.Mem; m.ScrubReads > 0 {
			rj.rewrite = float64(m.ScrubWrites) / float64(m.ScrubReads)
		}
		r, err := replaySplit(rj)
		if err != nil {
			return out, fmt.Errorf("replay %s/%s: %w", j.bench.Name, j.scheme.Name(), err)
		}
		out.replayMismatches += r.mismatches
		memSec += r.memctrl.Seconds()
		cpuSec += max(0, (r.combined - r.memctrl).Seconds())
		memCalls += r.memCalls
		cpuCalls += r.cpuCalls
	}
	out.memctrlNSPerCall = memSec * 1e9 / float64(memCalls)
	out.cpuNSPerCall = cpuSec * 1e9 / float64(cpuCalls)
	out.memctrlSecPerJob = memSec / float64(len(jobs))
	out.cpuSecPerJob = cpuSec / float64(len(jobs))
	return out, nil
}
