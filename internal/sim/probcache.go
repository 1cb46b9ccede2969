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
// steady-state fraction, and the per-engine index over them (tableSets),
// returning the number of tables and fractions evicted.
// Benchmarks use it to measure cold builds; campaigns never need it.
// trace.Rand's seed memo and the pool of recycled engines are left
// alone: neither holds a table (a pooled engine drops its references to
// the shared ones), and what they hold cannot change a result.
func PurgeSharedCaches() int {
	tableSets.Range(func(k, _ any) bool {
		tableSets.Delete(k)
		return true
	})
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

// tableKey is everything an engine's reliability tables depend on: the
// temperature, and the interval and metric of a W=1 scrub scan (zero for
// any other plan, which needs no steady-state fraction). It is three
// words, where the drift configs it stands for are ~200 bytes each.
type tableKey struct {
	tempK    float64
	interval time.Duration
	metric   drift.Metric
}

// engineTables is what one engine takes from the memos: the R and M
// probability tables and, under a W=1 scrub plan, the scan metric's
// steady-state rewrite fraction.
type engineTables struct {
	r, m          *probCache
	steadyRewrite float64
}

// tableSets indexes probCaches and steadyFracs by tableKey, so an engine
// finds all three of its entries with one small-key lookup instead of
// building two drift configs and hashing them two or three times.
var tableSets sync.Map // tableKey -> *engineTables

// sharedTables returns the memoized tables of an engine at temperature
// tempK under scrub plan plan. A miss builds them through sharedProbCache
// and sharedSteadyRewrite; a hit counts one cacheStats hit per table, as
// those lookups would have.
func sharedTables(tempK float64, plan Scrub) (*engineTables, error) {
	key := tableKey{tempK: tempK}
	if plan.Interval > 0 && plan.W == 1 {
		key.interval, key.metric = plan.Interval, plan.Metric
	}
	if v, ok := tableSets.Load(key); ok {
		if key.interval > 0 {
			cacheStats.hits.Add(3)
		} else {
			cacheStats.hits.Add(2)
		}
		return v.(*engineTables), nil
	}
	// At the default 300 K the temperature-parameterized configs are
	// bit-identical to the paper's (drift.RMetricConfigAt anchors
	// exactly), so default runs share the paper's memo entries.
	rCfg, mCfg := drift.RMetricConfigAt(tempK), drift.MMetricConfigAt(tempK)
	t := &engineTables{r: sharedProbCache(rCfg, 8), m: sharedProbCache(mCfg, 8)}
	if key.interval > 0 {
		scanCfg := rCfg
		if key.metric == drift.MetricM {
			scanCfg = mCfg
		}
		f, err := sharedSteadyRewrite(scanCfg, key.interval)
		if err != nil {
			return nil, err
		}
		t.steadyRewrite = f
	}
	tableSets.Store(key, t)
	return t, nil
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

// silentRetry returns Silent and Retry at the given age, locating it on
// the grid once for both.
func (pc *probCache) silentRetry(ageSeconds float64) (silent, retry float64) {
	if ageSeconds <= 0 {
		return 0, 0
	}
	i, f := pc.locate(ageSeconds)
	return lerp(pc.pSilent, i, f), lerp(pc.pRetry, i, f)
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
