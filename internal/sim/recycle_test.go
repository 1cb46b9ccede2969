package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"readduo/internal/drift"
	"readduo/internal/telemetry"
	"readduo/internal/trace"
)

// recycleJob is one run of TestRecycledEngineMatchesFresh's sequence.
type recycleJob struct {
	label  string
	bench  string
	scheme string
	// design, when set, replaces scheme with a composition no spec names.
	design *Design
	budget uint64
	// setup edits the configuration; it runs once per run, so a Source
	// it installs is fresh every time.
	setup func(t *testing.T, cfg *Config)
	// cancelAfter, when positive, cancels the run at that many context
	// polls, mid-run.
	cancelAfter int
}

// pollCancel is a context whose Err reports cancellation from its n-th
// poll on, so a run stops at the same event every time.
type pollCancel struct {
	context.Context
	n int
}

func (c *pollCancel) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// writeFirstSource gives every core a gap-0 script whose every 16th
// record, the first included, is a write. On a one-bank memory the first
// dispatch finds one write queued, so a forced drain that a reset forgot
// survives it, and when that write completes three more writes and a run
// of reads wait: a drain sends a write next, no drain a read. The job
// runs without warmup, which would hide that start.
type writeFirstSource struct{ pos [4]int }

func (s *writeFirstSource) Next(core int) (trace.Record, error) {
	k := s.pos[core]
	s.pos[core]++
	return trace.Record{Core: uint8(core), Write: k%16 == 0, Line: uint64(core*101 + k%53)}, nil
}

// replaySource records a generator's stream for benchmark b into a
// native trace file and returns a replayer over it: a caller-provided
// Source the engine does not own.
func replaySource(t *testing.T, b trace.Benchmark, cores int, seed int64) *trace.Replayer {
	t.Helper()
	gen, err := trace.NewGenerator(b, cores, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, b.Name, cores)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		rec, err := gen.Next(i % cores)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rp, err := trace.NewReplayer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

// recycleJobs is the heterogeneous sequence: a long job that leaves a
// large line table to the short jobs after it, every sense/scrub/write family, both
// environment channels, other bank and core counts, a bursty generator
// (its per-core record count sets the burst phase), a replayed Source
// and a cancelled run. Neighbours are chosen so that state a reset
// forgot reaches a result: two converter jobs over the same lines, two
// disturb jobs, a job without warmup (its Result counts from zero), a
// walker that scrubs touched lines in a small memory after another
// scrubbing job, and a one-bank job after a one-bank run cancelled in a
// forced write drain. Every job runs seed 1, so jobs of one benchmark
// and core count share a row and replay the engine's generator tape:
// the long job passes the tape's cap and a short job of its row follows
// it, and a 60k-instruction job follows a 25k one of its row, so its
// cores draw on past the tape (run in reverse, a shorter job follows a
// longer one, and a long job extends a short job's tape past the cap).
func recycleJobs() []recycleJob {
	// Short converter epochs let lines a previous job converted move the
	// converter. A one-bank memory with WriteDrainLo 0 keeps a forced
	// drain on until the write queue empties, and a first dispatch with
	// one write queued does not clear it.
	epochs := func(_ *testing.T, cfg *Config) { cfg.EpochReads = 128 }
	oneBank := func(_ *testing.T, cfg *Config) {
		cfg.Mem.Banks = 1
		cfg.Mem.WriteDrainHi, cfg.Mem.WriteDrainLo = 8, 0
	}
	return []recycleJob{
		{label: "mcf/LWT-4/long", bench: "mcf", scheme: "LWT-4", budget: 150_000, setup: epochs},
		{label: "mcf/Ideal/after-long", bench: "mcf", scheme: "Ideal", budget: 25_000},
		{label: "mcf/LWT-4/2-core", bench: "mcf", scheme: "LWT-4", budget: 25_000,
			setup: func(t *testing.T, cfg *Config) { epochs(t, cfg); cfg.CPU.Cores = 2 }},
		{label: "gcc/Ideal/no-warmup", bench: "gcc", scheme: "Ideal", budget: 25_000,
			setup: func(_ *testing.T, cfg *Config) { cfg.WarmupFrac = 0 }},
		{label: "gcc/LWT-4/60k", bench: "gcc", scheme: "LWT-4", budget: 60_000},
		{label: "lbm/Scrubbing", bench: "lbm", scheme: "Scrubbing", budget: 25_000},
		{label: "mcf/fast-scrub/small-memory", bench: "mcf", budget: 25_000,
			design: &Design{Sense: SenseTracked, Write: WritePlain, K: 4,
				Scrub: Scrub{Interval: time.Millisecond, Metric: drift.MetricM, W: 0}},
			setup: func(_ *testing.T, cfg *Config) { cfg.Mem.TotalLines = 1 << 13 }},
		{label: "hmmer/M-metric", bench: "hmmer", scheme: "M-metric", budget: 25_000},
		{label: "bursty/Hybrid", bench: "bursty", scheme: "Hybrid", budget: 25_000},
		{label: "lbm/Select-4:2", bench: "lbm", scheme: "Select-4:2", budget: 25_000},
		{label: "lbm/lwc:r=8", bench: "lbm", scheme: "lwc:r=8", budget: 25_000},
		{label: "gcc/LWT-4@disturb", bench: "gcc", scheme: "LWT-4@disturb=0.01", budget: 25_000},
		{label: "gcc/Hybrid@disturb", bench: "gcc", scheme: "Hybrid@disturb=0.01", budget: 25_000},
		{label: "bursty/Scrubbing@temp", bench: "bursty", scheme: "Scrubbing@temp=250", budget: 25_000},
		{label: "gcc/Hybrid/replay", bench: "gcc", scheme: "Hybrid", budget: 25_000,
			setup: func(t *testing.T, cfg *Config) { cfg.Source = replaySource(t, cfg.Bench, cfg.CPU.Cores, 77) }},
		{label: "lbm/Select-4:2/1-bank/cancelled", bench: "lbm", scheme: "Select-4:2", budget: 500_000,
			setup: oneBank, cancelAfter: 4},
		{label: "script/Ideal/1-bank", bench: "lbm", scheme: "Ideal", budget: 25_000,
			setup: func(t *testing.T, cfg *Config) {
				oneBank(t, cfg)
				cfg.Source, cfg.WarmupFrac = &writeFirstSource{}, 0
			}},
	}
}

// recycleConfig resolves a job's configuration.
func recycleConfig(t *testing.T, j recycleJob) (Config, Scheme) {
	t.Helper()
	var b trace.Benchmark
	if j.bench == "bursty" {
		b, _ = trace.ByName("gcc")
		b.Name, b.BurstFactor, b.BurstPeriodRecs = "gcc-bursty", 0.6, 97
	} else {
		var ok bool
		if b, ok = trace.ByName(j.bench); !ok {
			t.Fatalf("unknown benchmark %s", j.bench)
		}
	}
	var scheme Scheme
	if j.design != nil {
		scheme = Compose(j.label, *j.design)
	} else {
		var err error
		if scheme, err = Parse(j.scheme); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig(b)
	cfg.CPU.InstrBudget = j.budget
	cfg.Telemetry = telemetry.NewRegistry("recycle")
	if j.setup != nil {
		j.setup(t, &cfg)
	}
	return cfg, scheme
}

// runDigest is the sha256 of a run's Result JSON followed by the JSON of
// the engine's own telemetry counters, which also see state no Result
// field reports (converted-line rehits, for one).
func runDigest(t *testing.T, res *Result, reg *telemetry.Registry) string {
	t.Helper()
	counters := map[string]uint64{}
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "sim.") && !strings.HasPrefix(name, "sim.probcache.") {
			counters[name] = v
		}
	}
	buf, err := json.Marshal(counters)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(append([]byte(resultDigest(t, res)), buf...))
	return hex.EncodeToString(sum[:])
}

// TestRecycledEngineMatchesFresh runs a heterogeneous job sequence, then
// the same sequence reversed, and requires every Result, and every count
// of the engine's telemetry, to match by sha256 the same job on a
// never-recycled engine. Each run reports to a registry of its own.
//
// The first pass rebuilds one engine in place from job to job: empty,
// then init, as RunContext and newEngine do through enginePool. It even
// reuses the cancelled job's engine, mid-run state and all, which
// RunContext never does. The second pass runs the sequence through
// RunContext and the pool, where the cancelled job must fail and leave
// the jobs after it unchanged.
func TestRecycledEngineMatchesFresh(t *testing.T) {
	jobs := recycleJobs()
	seq := append([]recycleJob{}, jobs...)
	for i := len(jobs) - 1; i >= 0; i-- {
		seq = append(seq, jobs[i])
	}

	want := map[string]string{}
	for _, j := range jobs {
		if j.cancelAfter > 0 {
			continue
		}
		cfg, scheme := recycleConfig(t, j)
		e := new(Engine)
		if err := e.init(cfg, scheme); err != nil {
			t.Fatalf("%s: %v", j.label, err)
		}
		if err := e.loop(context.Background()); err != nil {
			t.Fatalf("%s: %v", j.label, err)
		}
		want[j.label] = runDigest(t, e.result(), cfg.Telemetry)
	}

	t.Run("in-place", func(t *testing.T) {
		e := new(Engine)
		for i, j := range seq {
			cfg, scheme := recycleConfig(t, j)
			if err := e.init(cfg, scheme); err != nil {
				t.Fatalf("job %d %s: %v", i, j.label, err)
			}
			var ctx context.Context = context.Background()
			if j.cancelAfter > 0 {
				ctx = &pollCancel{Context: ctx, n: j.cancelAfter}
			}
			err := e.loop(ctx)
			switch {
			case j.cancelAfter > 0:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("job %d %s: loop returned %v, want a cancellation", i, j.label, err)
				}
			case err != nil:
				t.Fatalf("job %d %s: %v", i, j.label, err)
			default:
				if got := runDigest(t, e.result(), cfg.Telemetry); got != want[j.label] {
					t.Errorf("job %d %s on a recycled engine: digest %s, want %s", i, j.label, got, want[j.label])
				}
			}
			e.empty()
		}
	})

	t.Run("pool", func(t *testing.T) {
		for i, j := range seq {
			cfg, scheme := recycleConfig(t, j)
			var ctx context.Context = context.Background()
			if j.cancelAfter > 0 {
				ctx = &pollCancel{Context: ctx, n: j.cancelAfter}
			}
			res, err := RunContext(ctx, cfg, scheme)
			switch {
			case j.cancelAfter > 0:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("job %d %s: RunContext returned %v, want a cancellation", i, j.label, err)
				}
			case err != nil:
				t.Fatalf("job %d %s: %v", i, j.label, err)
			default:
				if got := runDigest(t, res, cfg.Telemetry); got != want[j.label] {
					t.Errorf("job %d %s through the pool: digest %s, want %s", i, j.label, got, want[j.label])
				}
			}
		}
	})
}

// TestEmptiedEngineHoldsNoCallerMemory: an engine that enters the pool
// keeps no reference to the caller's Source or Telemetry, nor to a
// shared probability table, and keeps its line table empty. The cluster
// it keeps for the next job references no Source.
func TestEmptiedEngineHoldsNoCallerMemory(t *testing.T) {
	j := recycleJobs()[0]
	cfg, scheme := recycleConfig(t, j)
	cfg.Source = replaySource(t, cfg.Bench, cfg.CPU.Cores, 5)
	e, err := newEngine(cfg, scheme)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.loop(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.empty()
	if e.cfg.Source != nil || e.cfg.Telemetry != nil || e.tel != nil {
		t.Error("emptied engine still references the caller's Source or Telemetry")
	}
	if e.cluster == nil || !reflect.ValueOf(e.cluster).Elem().FieldByName("src").IsNil() {
		t.Error("emptied engine lost its cluster, or the cluster still references a Source")
	}
	if e.rProbs != nil || e.mProbs != nil || e.converter != nil {
		t.Error("emptied engine still references a probability table or converter")
	}
	if e.lastWrite == nil || e.lastWrite.Len() != 0 {
		t.Fatal("emptied engine lost or kept its line table's entries")
	}
}
