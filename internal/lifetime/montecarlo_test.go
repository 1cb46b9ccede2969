package lifetime

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

func mcBase() MCConfig {
	return MCConfig{
		Cells:           50_000,
		MedianEndurance: DefaultEndurance,
		Sigma:           0.25,
		WearRate:        1.0 / 3600, // one program per cell-hour
		Seed:            1,
		Shards:          8,
	}
}

// TestMCDeterministicAcrossWorkers: same (seed, shards), any worker
// count, identical result.
func TestMCDeterministicAcrossWorkers(t *testing.T) {
	cfg := mcBase()
	cfg.Workers = 1
	want, err := SimulateMC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8, 32, 0} {
		cfg.Workers = w
		got, err := SimulateMC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: %+v != serial %+v", w, got, want)
		}
	}
}

// TestMCMatchesLognormalTheory checks the sampled quantiles against the
// closed-form lognormal: median ~ median_endurance/rate, and the 1%
// quantile at exp(-2.326 sigma) of the median.
func TestMCMatchesLognormalTheory(t *testing.T) {
	cfg := mcBase()
	res, err := SimulateMC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	medianWant := cfg.MedianEndurance / cfg.WearRate
	if r := res.MedianSeconds / medianWant; r < 0.98 || r > 1.02 {
		t.Errorf("median %v want ~%v (ratio %v)", res.MedianSeconds, medianWant, r)
	}
	p01Want := medianWant * math.Exp(-2.3263*cfg.Sigma)
	if r := res.P01Seconds / p01Want; r < 0.95 || r > 1.05 {
		t.Errorf("p01 %v want ~%v (ratio %v)", res.P01Seconds, p01Want, r)
	}
	meanWant := medianWant * math.Exp(cfg.Sigma*cfg.Sigma/2)
	if r := res.MeanSeconds / meanWant; r < 0.98 || r > 1.02 {
		t.Errorf("mean %v want ~%v (ratio %v)", res.MeanSeconds, meanWant, r)
	}
	if res.FirstFailSeconds >= res.P01Seconds || res.P01Seconds >= res.MedianSeconds {
		t.Errorf("ordering violated: first %v p01 %v median %v",
			res.FirstFailSeconds, res.P01Seconds, res.MedianSeconds)
	}
}

// TestMCAgainstAnalyticModel ties the kernel back to the analytic
// projection: with sigma=0 every cell dies exactly at Project's horizon.
func TestMCAgainstAnalyticModel(t *testing.T) {
	cfg := mcBase()
	cfg.Sigma = 0
	// One program per cell-second keeps the 1e8-write horizon well inside
	// time.Duration's representable range for the analytic comparison.
	cfg.WearRate = 1.0
	res, err := SimulateMC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(cfg.MedianEndurance, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One cell written at WearRate for an hour absorbs WearRate*3600 writes.
	dur := time.Hour
	writes := uint64(cfg.WearRate * dur.Seconds())
	proj, err := m.Project(writes, dur)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.MedianSeconds / proj.Seconds(); r < 0.999 || r > 1.001 {
		t.Errorf("sigma=0 MC median %v vs analytic projection %v", res.MedianSeconds, proj)
	}
	if res.FirstFailSeconds != res.MedianSeconds {
		t.Errorf("sigma=0 population not degenerate: first %v median %v",
			res.FirstFailSeconds, res.MedianSeconds)
	}
}

func TestMCConfigValidate(t *testing.T) {
	bad := []func(*MCConfig){
		func(c *MCConfig) { c.Cells = 0 },
		func(c *MCConfig) { c.MedianEndurance = 0 },
		func(c *MCConfig) { c.Sigma = -0.1 },
		func(c *MCConfig) { c.WearRate = 0 },
		func(c *MCConfig) { c.Shards = 0 },
		func(c *MCConfig) { c.Shards = 1; c.Cells = 0 },
		func(c *MCConfig) { c.MedianEndurance = math.NaN() },
		func(c *MCConfig) { c.MedianEndurance = math.Inf(1) },
		func(c *MCConfig) { c.Sigma = math.NaN() },
		func(c *MCConfig) { c.Sigma = math.Inf(1) },
		func(c *MCConfig) { c.WearRate = math.NaN() },
		func(c *MCConfig) { c.WearRate = math.Inf(1) },
		// Finite inputs whose lifetimes overflow to +Inf.
		func(c *MCConfig) { c.WearRate = 1e-320 },
		func(c *MCConfig) { c.MedianEndurance = 1e308; c.Sigma = 5 },
	}
	for i, mutate := range bad {
		cfg := mcBase()
		mutate(&cfg)
		if _, err := SimulateMC(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	cfg := mcBase()
	if err := cfg.Validate(); err != nil {
		t.Errorf("base config rejected: %v", err)
	}
}

// TestMCContextCancelled: a context that is done before the study starts,
// by cancellation or by its deadline, fails the study with an error
// that wraps the context's.
func TestMCContextCancelled(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	for _, ctx := range []context.Context{cancelled, expired} {
		res, err := SimulateMCContext(ctx, mcBase())
		if !errors.Is(err, ctx.Err()) {
			t.Errorf("context done with %v: got %+v, %v; want an error wrapping the context's", ctx.Err(), res, err)
		}
	}
}

// TestSimulateMCConcurrentPooled runs studies from several goroutines at
// once, so shard streams pass between studies through the pool while
// others draw; each result must equal its serial one. Run it under
// -race.
func TestSimulateMCConcurrentPooled(t *testing.T) {
	cfgs := make([]MCConfig, 8)
	want := make([]MCResult, len(cfgs))
	for i := range cfgs {
		cfgs[i] = MCConfig{
			Cells: 500 + 700*i, MedianEndurance: 1e8, Sigma: 0.25, WearRate: 1e-3,
			Seed: int64(i), Shards: 1 + 9*i, Workers: 1,
		}
		var err error
		if want[i], err = SimulateMC(cfgs[i]); err != nil {
			t.Fatal(err)
		}
		cfgs[i].Workers = 0
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for j := range cfgs {
					i := (j + g) % len(cfgs)
					if got, err := SimulateMC(cfgs[i]); err != nil || got != want[i] {
						t.Errorf("goroutine %d, study %d: %+v, %v; serial %+v", g, i, got, err, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSimulateMCAllocs: a /v1/mc-shaped study allocates its lifetimes
// and a constant few objects more, not a stream per shard.
func TestSimulateMCAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	cfg := MCConfig{
		Cells: 2000, MedianEndurance: 1e8, Sigma: 0.25, WearRate: 1e-3,
		Seed: 1, Shards: 64, Workers: 1,
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := SimulateMC(cfg); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Errorf("a 2,000-cell, 64-shard study allocates %.1f times, want at most 4", allocs)
	}
}

// BenchmarkSimulateMC times one /v1/mc-shaped study: 2000 cells over 64
// shards on one worker.
func BenchmarkSimulateMC(b *testing.B) {
	cfg := MCConfig{
		Cells: 2000, MedianEndurance: 1e8, Sigma: 0.25, WearRate: 1e-3,
		Seed: 1, Shards: 64, Workers: 1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateMC(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
