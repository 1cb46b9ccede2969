package sim

import (
	"math"
	"sync"
	"time"

	"readduo/internal/dist"
	"readduo/internal/drift"
	"readduo/internal/reliability"
	"readduo/internal/telemetry"
)

// probCache precomputes age-dependent line-error probabilities on a
// logarithmic age grid so the hot simulation paths never run quadrature.
type probCache struct {
	minAge, maxAge float64 // seconds
	logMin, step   float64
	// Per grid point:
	pAnyError []float64 // P(>= 1 drifted cell)
	pRetry    []float64 // P(correctT < errors <= 2t+1): R-M-read trigger
	pSilent   []float64 // P(errors > 2t+1): undetectable
}

const probCachePoints = 128

// newProbCache builds the cache for one readout metric with a BCH-t code
// over the standard 256-cell line.
func newProbCache(cfg drift.Config, correctT int) *probCache {
	pc := &probCache{
		minAge: 1,
		maxAge: 1e7, // ~115 days, beyond any workload's OldAge
	}
	pc.logMin = math.Log(pc.minAge)
	pc.step = (math.Log(pc.maxAge) - pc.logMin) / float64(probCachePoints-1)
	pc.pAnyError = make([]float64, probCachePoints)
	pc.pRetry = make([]float64, probCachePoints)
	pc.pSilent = make([]float64, probCachePoints)
	detect := 2*correctT + 1
	kern := cfg.Kernel()
	for i := 0; i < probCachePoints; i++ {
		age := math.Exp(pc.logMin + float64(i)*pc.step)
		p := kern.AvgCellErrorProb(age)
		n := reliability.CellsPerLine
		pc.pAnyError[i] = 1 - math.Pow(1-p, float64(n))
		tailT := dist.BinomTailGT(n, p, correctT)
		tailDetect := dist.BinomTailGT(n, p, detect)
		pc.pRetry[i] = tailT - tailDetect
		if pc.pRetry[i] < 0 {
			pc.pRetry[i] = 0
		}
		pc.pSilent[i] = tailDetect
	}
	return pc
}

// cacheStats are the process-wide memo-table probes. They are plain
// value counters, always live (a few atomic adds per sim.Run, nowhere
// near a hot path), and mirrored into a telemetry registry on demand by
// RegisterCacheTelemetry so snapshots include them.
var cacheStats struct {
	hits, misses, evictions telemetry.Counter
}

// RegisterCacheTelemetry publishes the shared probability-cache
// counters into reg under the "sim.probcache" scope. Safe to call with
// a nil registry.
func RegisterCacheTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter("sim.probcache.hit", &cacheStats.hits)
	reg.RegisterCounter("sim.probcache.miss", &cacheStats.misses)
	reg.RegisterCounter("sim.probcache.eviction", &cacheStats.evictions)
}

// CacheStats reports the process-wide probability-cache counters:
// memo-table hits, misses (each miss runs the full quadrature build),
// and evictions (tables dropped by PurgeSharedCaches).
func CacheStats() (hits, misses, evictions uint64) {
	return cacheStats.hits.Value(), cacheStats.misses.Value(), cacheStats.evictions.Value()
}

// PurgeSharedCaches drops every memoized probability table and
// steady-state fraction, returning the number of entries evicted.
// Benchmarks use it to measure cold builds; campaigns never need it.
// trace.Rand's seed memo and the pool of recycled engines are left
// alone: neither holds a table (a pooled engine drops its references to
// the shared ones), and what they hold cannot change a result.
func PurgeSharedCaches() int {
	n := 0
	probCaches.Range(func(k, _ any) bool {
		probCaches.Delete(k)
		n++
		return true
	})
	steadyFracs.Range(func(k, _ any) bool {
		steadyFracs.Delete(k)
		n++
		return true
	})
	cacheStats.evictions.Add(uint64(n))
	return n
}

// probCacheKey identifies one memoized probability table. drift.Config is
// a plain value type, so the key is comparable.
type probCacheKey struct {
	cfg      drift.Config
	correctT int
}

// probCaches memoizes probability tables across runs: every job of a
// campaign uses the same two (drift config, correctT) tables, and a
// probCache is immutable after construction, so concurrent runs share them
// race-free. A lost LoadOrStore race rebuilds an identical table once.
var probCaches sync.Map // probCacheKey -> *probCache

// sharedProbCache returns the process-wide memoized cache for the key,
// building it on first use.
func sharedProbCache(cfg drift.Config, correctT int) *probCache {
	key := probCacheKey{cfg: cfg, correctT: correctT}
	if v, ok := probCaches.Load(key); ok {
		cacheStats.hits.Inc()
		return v.(*probCache)
	}
	cacheStats.misses.Inc()
	v, _ := probCaches.LoadOrStore(key, newProbCache(cfg, correctT))
	return v.(*probCache)
}

// steadyKey identifies one memoized steady-state rewrite fraction.
type steadyKey struct {
	cfg      drift.Config
	interval time.Duration
}

var steadyFracs sync.Map // steadyKey -> float64

// sharedSteadyRewrite memoizes the W=1 steady-state rewrite fraction, the
// other quadrature-heavy per-run constant.
func sharedSteadyRewrite(cfg drift.Config, interval time.Duration) (float64, error) {
	key := steadyKey{cfg: cfg, interval: interval}
	if v, ok := steadyFracs.Load(key); ok {
		cacheStats.hits.Inc()
		return v.(float64), nil
	}
	cacheStats.misses.Inc()
	an, err := reliability.NewAnalyzer(cfg)
	if err != nil {
		return 0, err
	}
	f := an.SteadyStateRewriteFraction(interval.Seconds())
	v, _ := steadyFracs.LoadOrStore(key, f)
	return v.(float64), nil
}

// locate maps an age to its lower grid index plus interpolation weight.
func (pc *probCache) locate(ageSeconds float64) (int, float64) {
	if ageSeconds <= pc.minAge {
		return 0, 0
	}
	if ageSeconds >= pc.maxAge {
		return probCachePoints - 1, 0
	}
	x := (math.Log(ageSeconds) - pc.logMin) / pc.step
	i := int(x)
	if i >= probCachePoints-1 {
		return probCachePoints - 1, 0
	}
	return i, x - float64(i)
}

func lerp(tab []float64, i int, f float64) float64 {
	if f == 0 {
		return tab[i]
	}
	return tab[i] + f*(tab[i+1]-tab[i])
}

// AnyError returns P(>=1 drift error) at the given age.
func (pc *probCache) AnyError(ageSeconds float64) float64 {
	if ageSeconds <= 0 {
		return 0
	}
	i, f := pc.locate(ageSeconds)
	return lerp(pc.pAnyError, i, f)
}

// Retry returns the R-M-read probability at the given age.
func (pc *probCache) Retry(ageSeconds float64) float64 {
	if ageSeconds <= 0 {
		return 0
	}
	i, f := pc.locate(ageSeconds)
	return lerp(pc.pRetry, i, f)
}

// Silent returns the undetectable-error probability at the given age.
func (pc *probCache) Silent(ageSeconds float64) float64 {
	if ageSeconds <= 0 {
		return 0
	}
	i, f := pc.locate(ageSeconds)
	return lerp(pc.pSilent, i, f)
}

// ProbTable is an exported read-only handle on one memoized
// probability table — the exact structure the scrub scan and Hybrid
// read paths consult. Benchmarks and diagnostics use it to measure the
// cold build (after PurgeSharedCaches) and the hot lookup separately.
type ProbTable struct {
	pc *probCache
}

// SharedProbTable returns the process-wide memoized table for the
// metric with a BCH-t code, building it on first use.
func SharedProbTable(metric drift.Metric, correctT int) ProbTable {
	cfg := drift.RMetricConfig()
	if metric == drift.MetricM {
		cfg = drift.MMetricConfig()
	}
	return ProbTable{pc: sharedProbCache(cfg, correctT)}
}

// AnyError returns P(>=1 drifted cell) at the given age.
func (t ProbTable) AnyError(ageSeconds float64) float64 { return t.pc.AnyError(ageSeconds) }

// Retry returns the R-M-read trigger probability at the given age.
func (t ProbTable) Retry(ageSeconds float64) float64 { return t.pc.Retry(ageSeconds) }

// Silent returns the undetectable-error probability at the given age.
func (t ProbTable) Silent(ageSeconds float64) float64 { return t.pc.Silent(ageSeconds) }
