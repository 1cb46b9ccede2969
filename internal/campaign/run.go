package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"readduo/internal/sim"
	"readduo/internal/telemetry"
)

// Options tunes a campaign run.
type Options struct {
	// Parallel is the worker count; <= 0 selects GOMAXPROCS. The caller's
	// goroutine is worker 0, so Parallel 1 starts no goroutine.
	Parallel int
	// Journal, when non-nil, receives every completed job record.
	Journal *Journal
	// Completed holds journal records from a previous run, keyed by job
	// key; matching jobs are reused instead of re-executed.
	Completed map[string]Record
	// Progress, when non-nil, receives a one-line status update at the
	// first job completion after each progressEvery.
	Progress func(format string, args ...any)
	// Telemetry, when non-nil, receives campaign-level probes (job
	// outcomes, wall time) under the "campaign" scope and is
	// threaded into every job's sim.Config. When a Journal is also set,
	// the run stamps a counter summary into it at drain so resumed
	// campaigns can report cumulative statistics.
	Telemetry *telemetry.Registry
	// CancelInFlight threads the run context into each executing
	// simulation: cancelling ctx then aborts in-flight jobs immediately
	// (they are journaled as failed with the context error and re-run on
	// resume) instead of letting them finish. The default preserves the
	// batch-tool behavior — a drain finishes what it started — while a
	// serving layer with per-request deadlines wants the abort.
	CancelInFlight bool
}

// progressEvery is the cadence of Options.Progress updates.
const progressEvery = 5 * time.Second

// campaignProbes is the scheduler's own instrumentation. All fields are
// nil when Options.Telemetry is nil; the metric types no-op on nil.
type campaignProbes struct {
	jobsOK      *telemetry.Counter
	jobsFailed  *telemetry.Counter
	jobsPanic   *telemetry.Counter
	jobsResumed *telemetry.Counter
	wallMS      *telemetry.Histogram // per-job execution wall time
}

func newCampaignProbes(reg *telemetry.Registry) campaignProbes {
	s := reg.Sink("campaign")
	return campaignProbes{
		jobsOK:      s.Counter("jobs.ok"),
		jobsFailed:  s.Counter("jobs.failed"),
		jobsPanic:   s.Counter("jobs.panic"),
		jobsResumed: s.Counter("jobs.resumed"),
		wallMS:      s.Histogram("job.wall_ms"),
	}
}

// Outcome is the result of a campaign run.
type Outcome struct {
	// Records is dense in job-index order. Jobs never started (an
	// interrupted campaign) have zero-value records (Status "").
	Records []Record
	// Done counts StatusOK records, including Resumed ones; Failed counts
	// StatusFailed; Remaining counts jobs never started.
	Done, Failed, Remaining int
	// Resumed counts jobs satisfied from a previous journal.
	Resumed int
	// Parallel is the resolved worker count.
	Parallel int
	// Interrupted reports a context cancellation before all jobs ran.
	Interrupted bool
	// Elapsed is the campaign wall time.
	Elapsed time.Duration
}

// Run executes the campaign. Each worker claims the next pending job from
// a shared counter and runs it; a worker that finds ctx cancelled claims no
// more, so cancelling ctx triggers a graceful drain: in-flight jobs finish
// and are journaled, unclaimed jobs are abandoned, and the Outcome reports
// Interrupted. The returned error covers setup problems only; per-job
// failures are Records with StatusFailed.
func Run(ctx context.Context, spec Spec, opts Options) (*Outcome, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	jobs := spec.Jobs()
	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	progress := opts.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}
	out := &Outcome{Records: make([]Record, len(jobs)), Parallel: parallel}
	tel := newCampaignProbes(opts.Telemetry)
	start := time.Now()

	// Satisfy jobs from the previous journal first. A record only counts
	// if its derived seed still matches — a stale journal entry (e.g. from
	// a spec whose fingerprint collided) must re-run, not corrupt results.
	pending := jobs
	if len(opts.Completed) > 0 {
		pending = nil
		for _, job := range jobs {
			if rec, ok := opts.Completed[job.Key()]; ok &&
				rec.Status == StatusOK && rec.Result != nil && rec.Seed == job.Seed {
				rec.Index = job.Index
				out.Records[job.Index] = rec
				out.Done++
				out.Resumed++
				continue
			}
			pending = append(pending, job)
		}
	}
	if out.Resumed > 0 {
		progress("campaign: resumed %d/%d jobs from journal", out.Resumed, len(jobs))
		tel.jobsResumed.Add(uint64(out.Resumed))
	}

	// jobCtx is what executing simulations observe: the run context when
	// the caller asked for in-flight cancellation, an unbounded context
	// for the classic drain (cancel stops the claims, running jobs finish).
	jobCtx := context.Background()
	if opts.CancelInFlight {
		jobCtx = ctx
	}
	// finish stores one record and runs everything that follows a job,
	// in completion order under mu: the outcome counters, the journal
	// append and the progress line.
	var (
		mu           sync.Mutex
		executed     int
		journalErr   error
		lastProgress = start
	)
	finish := func(rec Record) {
		mu.Lock()
		defer mu.Unlock()
		out.Records[rec.Index] = rec
		executed++
		if rec.Status == StatusOK {
			out.Done++
			tel.jobsOK.Inc()
		} else {
			out.Failed++
			tel.jobsFailed.Inc()
			progress("campaign: job %s failed: %s", rec.Key, rec.Error)
		}
		if opts.Journal != nil && journalErr == nil {
			journalErr = opts.Journal.Append(rec)
		}
		if now := time.Now(); now.Sub(lastProgress) >= progressEvery {
			lastProgress = now
			progress("campaign: %d/%d jobs done (%d failed), %d workers, %s elapsed",
				out.Done, len(jobs), out.Failed, parallel, now.Sub(start).Round(time.Millisecond))
		}
	}
	var next atomic.Int64
	work := func(worker int) {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(pending) {
				return
			}
			finish(runJob(jobCtx, spec, pending[i], worker, tel, opts))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(parallel, len(pending)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()

	out.Remaining = len(jobs) - out.Done - out.Failed
	out.Interrupted = ctx.Err() != nil && out.Remaining > 0
	out.Elapsed = time.Since(start)
	switch {
	case out.Interrupted:
		progress("campaign: interrupted with %d/%d jobs done (%d failed, %d remaining) after %s",
			out.Done, len(jobs), out.Failed, out.Remaining, out.Elapsed.Round(time.Millisecond))
	default:
		progress("campaign: finished %d/%d jobs (%d failed) in %s",
			out.Done, len(jobs), out.Failed, out.Elapsed.Round(time.Millisecond))
	}
	if opts.Journal != nil && journalErr == nil {
		// Stamp this run's counter totals, then force everything to disk:
		// a crash between campaign completion and process exit must not
		// lose records Close would otherwise have flushed.
		if opts.Telemetry != nil {
			journalErr = opts.Journal.AppendTelemetry(
				SummaryFromSnapshot(opts.Telemetry.Snapshot(), executed, time.Now().Unix()))
		}
		if journalErr == nil {
			journalErr = opts.Journal.Sync()
		}
	}
	if journalErr != nil {
		return out, journalErr
	}
	return out, nil
}

// runJob executes one simulation, converting a panic anywhere inside the
// simulator into a failed-job record rather than a dead process. ctx
// aborts the simulation mid-run (Options.CancelInFlight); the aborted job
// is recorded as failed with the context error.
func runJob(ctx context.Context, spec Spec, job Job, worker int, tel campaignProbes, opts Options) (rec Record) {
	rec = Record{
		Key:       job.Key(),
		Index:     job.Index,
		Benchmark: job.Benchmark.Name,
		Scheme:    job.Scheme.Name(),
		SeedIndex: job.SeedIndex,
		Seed:      job.Seed,
		Worker:    worker,
	}
	start := time.Now()
	defer func() {
		rec.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
		if p := recover(); p != nil {
			rec.Status = StatusFailed
			rec.Error = fmt.Sprintf("panic: %v", p)
			rec.Result = nil
			tel.jobsPanic.Inc()
		}
		tel.wallMS.Observe(uint64(rec.WallMS))
	}()
	cfg := sim.DefaultConfig(job.Benchmark)
	if spec.Budget > 0 {
		cfg.CPU.InstrBudget = spec.Budget
	}
	cfg.Seed = job.Seed
	cfg.Telemetry = opts.Telemetry
	if spec.Configure != nil {
		cfg = configured(spec.Configure, job, cfg)
	}
	res, err := sim.RunContext(ctx, cfg, job.Scheme)
	if err != nil {
		rec.Status = StatusFailed
		rec.Error = err.Error()
		return rec
	}
	rec.Status = StatusOK
	rec.Result = res
	return rec
}

// configured returns cfg as configure leaves it. A Config whose address
// reaches a hook escapes to the heap, so only a job whose spec has a
// Configure hook pays that allocation.
func configured(configure func(Job, *sim.Config), job Job, cfg sim.Config) sim.Config {
	configure(job, &cfg)
	return cfg
}
