package lifetime

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"readduo/internal/dist"
	"readduo/internal/parallel"
)

// The analytic Model treats endurance as a single per-cell constant; real
// PCM arrays wear out lognormally (sigma ~0.2-0.3 in ln units), so the
// first failures arrive well before the median cell dies. This file adds
// the Monte-Carlo companion: sample a population's per-cell endurance,
// convert each to a lifetime under the observed wear rate, and report the
// failure-time distribution. The kernel shards the population across a
// bounded worker pool with per-shard splitmix64 RNG sub-streams, making
// the result deterministic for a fixed (seed, shard count) regardless of
// worker count or scheduling.

// MCConfig parameterizes a Monte-Carlo endurance study.
type MCConfig struct {
	// Cells is the sampled population size.
	Cells int
	// MedianEndurance is the lognormal median per-cell write endurance.
	MedianEndurance float64
	// Sigma is the lognormal shape in natural-log units.
	Sigma float64
	// WearRate is the average cell-write rate (programs per cell-second),
	// e.g. Model.WearRate of a measured run.
	WearRate float64
	// Seed and Shards form the determinism key; Workers only bounds the
	// pool (<= 0 picks the machine's parallelism).
	Seed    int64
	Shards  int
	Workers int
}

// Validate checks the configuration.
func (c MCConfig) Validate() error {
	if c.Cells < 1 {
		return fmt.Errorf("lifetime: MC cell count %d must be positive", c.Cells)
	}
	if !(c.MedianEndurance > 0) || math.IsInf(c.MedianEndurance, 0) {
		return fmt.Errorf("lifetime: MC median endurance %v must be positive and finite", c.MedianEndurance)
	}
	if !(c.Sigma >= 0) || math.IsInf(c.Sigma, 0) {
		return fmt.Errorf("lifetime: MC sigma %v must be non-negative and finite", c.Sigma)
	}
	if !(c.WearRate > 0) || math.IsInf(c.WearRate, 0) {
		return fmt.Errorf("lifetime: MC wear rate %v must be positive and finite", c.WearRate)
	}
	if c.Shards < 1 || c.Shards > c.Cells {
		return fmt.Errorf("lifetime: MC shard count %d out of range 1..%d", c.Shards, c.Cells)
	}
	return nil
}

// MCResult summarizes the sampled failure-time distribution (seconds).
type MCResult struct {
	// FirstFailSeconds is the earliest cell death — the horizon at which
	// hard-error correction (ECP et al.) must take over.
	FirstFailSeconds float64
	// P01Seconds / MedianSeconds are the 1% and 50% failure quantiles.
	P01Seconds    float64
	MedianSeconds float64
	// MeanSeconds is the average cell lifetime.
	MeanSeconds float64
}

// SimulateMC samples the population and returns the failure-time summary.
func SimulateMC(cfg MCConfig) (MCResult, error) {
	return SimulateMCContext(context.Background(), cfg)
}

// shardRands holds shard streams between uses. A shard re-seeds the one
// it takes, so a stream's history never reaches a result.
var shardRands = sync.Pool{New: func() any { return dist.NewRand(0) }}

// cancelStride is how many cells a shard draws between polls of its
// context.
const cancelStride = 1 << 12

// SimulateMCContext is SimulateMC with cooperative cancellation: each
// shard polls ctx when it starts and every cancelStride cells, and bails
// out once ctx is done, so a cancelled request stops burning cores
// within microseconds. Results are identical to SimulateMC when ctx is
// never cancelled: polling never perturbs the RNG sub-streams.
func SimulateMCContext(ctx context.Context, cfg MCConfig) (MCResult, error) {
	if err := cfg.Validate(); err != nil {
		return MCResult{}, err
	}
	lifetimes := make([]float64, cfg.Cells)
	// Shard i holds base cells, plus one more for the first extra shards.
	base, extra := cfg.Cells/cfg.Shards, cfg.Cells%cfg.Shards
	parallel.ForEach(cfg.Workers, cfg.Shards, func(i int) {
		lo, hi := i*base+min(i, extra), (i+1)*base+min(i+1, extra)
		rng := shardRands.Get().(*rand.Rand)
		rng.Seed(int64(dist.Splitmix64(uint64(cfg.Seed) + uint64(i))))
		for c := lo; c < hi; c++ {
			if (c-lo)%cancelStride == 0 && ctx.Err() != nil {
				break
			}
			endurance := cfg.MedianEndurance * math.Exp(cfg.Sigma*rng.NormFloat64())
			if endurance < 1 {
				endurance = 1
			}
			lifetimes[c] = endurance / cfg.WearRate
		}
		shardRands.Put(rng)
	})
	if err := ctx.Err(); err != nil {
		return MCResult{}, fmt.Errorf("lifetime: MC aborted: %w", err)
	}
	sortLifetimes(lifetimes)
	var sum float64
	for _, v := range lifetimes {
		sum += v
	}
	q := func(p float64) float64 {
		i := int(p * float64(len(lifetimes)-1))
		return lifetimes[i]
	}
	res := MCResult{
		FirstFailSeconds: lifetimes[0],
		P01Seconds:       q(0.01),
		MedianSeconds:    q(0.50),
		MeanSeconds:      sum / float64(len(lifetimes)),
	}
	// Finite inputs can still overflow: a huge median or sigma, or a
	// wear rate near the smallest float, makes a lifetime or their sum
	// +Inf, which no JSON encoder can write. Every lifetime is positive,
	// so the mean is finite only if every summary value is.
	if math.IsInf(res.MeanSeconds, 0) {
		return MCResult{}, fmt.Errorf("lifetime: MC lifetimes overflow (mean %v s); lower the median endurance or sigma, or raise the wear rate", res.MeanSeconds)
	}
	return res, nil
}
