package campaign

import (
	"context"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"readduo/internal/sim"
)

// journaledRun runs spec with a fresh journal and returns the outcome and
// the records the journal holds, in file order.
func journaledRun(t *testing.T, ctx context.Context, spec Spec, opts Options) (*Outcome, []Record) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Create(path, spec.Header(1))
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal = j
	out, err := Run(ctx, spec, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, records, err := DecodeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out, records
}

// TestRunClaimsEveryJobOnce: with more jobs than workers, every job index
// is claimed and run exactly once, Records is dense in index order, the
// journal holds one record per done job, and every record names one of
// the Parallel workers.
func TestRunClaimsEveryJobOnce(t *testing.T) {
	spec := testSpec(t, 2_000)
	spec.Seeds = []int64{3, 4}
	jobs := spec.Jobs()
	runs := make([]atomic.Int32, len(jobs))
	spec.Configure = func(job Job, _ *sim.Config) { runs[job.Index].Add(1) }
	out, journaled := journaledRun(t, context.Background(), spec, Options{Parallel: 4})

	if out.Done != len(jobs) || out.Failed != 0 || out.Remaining != 0 || out.Interrupted {
		t.Fatalf("outcome = %+v", out)
	}
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Errorf("job %d ran %d times", i, n)
		}
	}
	for i, rec := range out.Records {
		if rec.Index != i || rec.Key != jobs[i].Key() || rec.Status != StatusOK || rec.Result == nil {
			t.Errorf("Records[%d] = index %d key %q status %q", i, rec.Index, rec.Key, rec.Status)
		}
		if rec.Worker < 0 || rec.Worker >= 4 {
			t.Errorf("Records[%d] ran on worker %d, want one of [0, 4)", i, rec.Worker)
		}
	}
	if len(journaled) != out.Done {
		t.Fatalf("journal holds %d records, outcome says %d done", len(journaled), out.Done)
	}
	seen := map[string]bool{}
	for _, rec := range journaled {
		if seen[rec.Key] || rec.Status != StatusOK {
			t.Errorf("journal record %q: duplicate %v, status %q", rec.Key, seen[rec.Key], rec.Status)
		}
		seen[rec.Key] = true
	}
}

// TestGracefulDrainParallel cancels while four workers each hold a job:
// the four finish and are journaled, and no worker claims another job
// after the cancel.
func TestGracefulDrainParallel(t *testing.T) {
	spec := testSpec(t, 2_000) // 6 jobs
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const parallel = 4
	var started, late atomic.Int64
	release := make(chan struct{})
	spec.Configure = func(Job, *sim.Config) {
		switch n := started.Add(1); {
		case n > parallel:
			late.Add(1)
		case n == parallel:
			cancel() // every worker now holds a job
			close(release)
		default:
			select {
			case <-release:
			case <-time.After(10 * time.Second):
				t.Error("the four workers never held a job at once")
			}
		}
	}
	out, journaled := journaledRun(t, ctx, spec, Options{Parallel: parallel})

	if n := late.Load(); n != 0 {
		t.Errorf("%d jobs started after the cancel", n)
	}
	if !out.Interrupted || out.Done != parallel || out.Remaining != 6-parallel {
		t.Fatalf("drain outcome = %+v", out)
	}
	if len(journaled) != out.Done {
		t.Errorf("journal has %d records, outcome says %d done", len(journaled), out.Done)
	}
}

// TestRunInlineAtParallelOne: at Parallel 1 the caller's goroutine runs
// every job, in index order, and Run starts no goroutine.
func TestRunInlineAtParallelOne(t *testing.T) {
	spec := testSpec(t, 2_000)
	before := settledGoroutines()
	var extra atomic.Int64
	spec.Configure = func(Job, *sim.Config) {
		if n := runtime.NumGoroutine(); n != before {
			extra.Store(int64(n - before))
		}
	}
	out, journaled := journaledRun(t, context.Background(), spec, Options{Parallel: 1})

	if n := extra.Load(); n != 0 {
		t.Errorf("a job saw %+d goroutines next to the caller's", n)
	}
	if out.Done != len(out.Records) {
		t.Fatalf("outcome = %+v", out)
	}
	for i, rec := range out.Records {
		if rec.Worker != 0 {
			t.Errorf("Records[%d] ran on worker %d, want 0", i, rec.Worker)
		}
	}
	if len(journaled) != len(out.Records) {
		t.Fatalf("journal has %d records, want %d", len(journaled), len(out.Records))
	}
	for i, rec := range journaled {
		if rec.Index != i {
			t.Errorf("journal line %d holds job %d, want index order", i, rec.Index)
		}
	}
}

// settledGoroutines returns the goroutine count once two reads a
// millisecond apart agree, so a goroutine an earlier test's pool or
// campaign is still retiring does not count.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}
