package campaign

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"readduo/internal/sim"
	"readduo/internal/telemetry"
)

// Options tunes a campaign run.
type Options struct {
	// Parallel is the worker-pool size; <= 0 selects GOMAXPROCS.
	Parallel int
	// Journal, when non-nil, receives every completed job record.
	Journal *Journal
	// Completed holds journal records from a previous run, keyed by job
	// key; matching jobs are reused instead of re-executed.
	Completed map[string]Record
	// Progress, when non-nil, receives a one-line status update every
	// progressEvery.
	Progress func(format string, args ...any)
	// Telemetry, when non-nil, receives campaign-level probes (job
	// outcomes, queue wait, wall time) under the "campaign" scope and is
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
	queueWaitMS *telemetry.Histogram // enqueue -> worker pickup latency
}

func newCampaignProbes(reg *telemetry.Registry) campaignProbes {
	s := reg.Sink("campaign")
	return campaignProbes{
		jobsOK:      s.Counter("jobs.ok"),
		jobsFailed:  s.Counter("jobs.failed"),
		jobsPanic:   s.Counter("jobs.panic"),
		jobsResumed: s.Counter("jobs.resumed"),
		wallMS:      s.Histogram("job.wall_ms"),
		queueWaitMS: s.Histogram("job.queue_wait_ms"),
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

// Run executes the campaign. Cancelling ctx triggers a graceful drain:
// in-flight jobs finish and are journaled, queued jobs are abandoned, and
// the Outcome reports Interrupted. The returned error covers setup problems
// only; per-job failures are Records with StatusFailed.
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
	var pending []Job
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
	if out.Resumed > 0 {
		progress("campaign: resumed %d/%d jobs from journal", out.Resumed, len(jobs))
		tel.jobsResumed.Add(uint64(out.Resumed))
	}

	// jobCtx is what executing simulations observe: the run context when
	// the caller asked for in-flight cancellation, an unbounded context
	// for the classic drain (cancel stops the feed, running jobs finish).
	jobCtx := context.Background()
	if opts.CancelInFlight {
		jobCtx = ctx
	}
	// The scheduling substrate is the shared Pool (also the serving
	// layer's engine): an unbuffered queue, so the producer below blocks
	// until a worker frees up and a context cancellation abandons exactly
	// the jobs that never reached a worker.
	pool := NewPool(parallel, 0, func(d time.Duration) {
		tel.queueWaitMS.Observe(uint64(d.Milliseconds()))
	})
	recCh := make(chan Record)
	go func() {
		for _, job := range pending {
			job := job
			err := pool.Submit(ctx, func(worker int) {
				recCh <- runJob(jobCtx, spec, job, worker, tel, opts)
			})
			if err != nil {
				break // context cancelled: abandon the rest of the queue
			}
		}
		pool.Close()
		close(recCh)
	}()

	ticker := time.NewTicker(progressEvery)
	defer ticker.Stop()
	started := out.Done
	var journalErr error
	for recCh != nil {
		select {
		case rec, ok := <-recCh:
			if !ok {
				recCh = nil
				continue
			}
			out.Records[rec.Index] = rec
			started++
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
		case <-ticker.C:
			progress("campaign: %d/%d jobs done (%d failed), %d workers, %s elapsed",
				out.Done, len(jobs), out.Failed, parallel,
				time.Since(start).Round(time.Millisecond))
		}
	}
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
			executed := started - out.Resumed
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
		spec.Configure(job, &cfg)
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
