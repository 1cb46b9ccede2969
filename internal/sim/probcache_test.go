package sim

import (
	"math"
	"sync"
	"testing"
	"time"

	"readduo/internal/dist"
	"readduo/internal/drift"
	"readduo/internal/reliability"
)

func TestProbCacheMonotoneAndBounded(t *testing.T) {
	pc := newProbCache(drift.RMetricConfig(), 8)
	prev := -1.0
	for _, age := range []float64{0.5, 1, 8, 64, 640, 1e4, 1e6, 1e8} {
		p := pc.AnyError(age)
		if p < 0 || p > 1 {
			t.Fatalf("AnyError(%g) = %v outside [0,1]", age, p)
		}
		if p < prev-1e-12 {
			t.Fatalf("AnyError not monotone at age %g", age)
		}
		prev = p
	}
	if pc.AnyError(0) != 0 || pc.Retry(0) != 0 || pc.Silent(0) != 0 {
		t.Error("zero age probabilities must vanish")
	}
}

func TestProbCacheMatchesDriftModel(t *testing.T) {
	cfg := drift.RMetricConfig()
	pc := newProbCache(cfg, 8)
	// At a grid-aligned age the cached P(>=1) must match the direct
	// computation closely.
	age := 640.0
	direct := 1.0
	p := cfg.AvgCellErrorProb(age)
	for i := 0; i < 256; i++ {
		direct *= 1 - p
	}
	direct = 1 - direct
	got := pc.AnyError(age)
	if got < direct*0.9 || got > direct*1.1 {
		t.Errorf("cached AnyError(640) = %v, direct %v", got, direct)
	}
}

func TestProbCacheOrdering(t *testing.T) {
	// At any age: silent <= retry <= any-error, and within the W=0 window
	// the retry probability is negligible (the Hybrid safety argument).
	pc := newProbCache(drift.RMetricConfig(), 8)
	for _, age := range []float64{8, 64, 640, 1e4} {
		anyE, retry, silent := pc.AnyError(age), pc.Retry(age), pc.Silent(age)
		if silent > retry+1e-18 {
			t.Errorf("age %g: silent %v > retry %v", age, silent, retry)
		}
		if retry > anyE+1e-18 {
			t.Errorf("age %g: retry %v > any %v", age, retry, anyE)
		}
	}
	// Within the 8 s Scrubbing window retries are vanishing; at the 640 s
	// W=0 boundary they reach the ~2e-4 that Table III's E=8 column
	// predicts (one R-M retry per ~5000 reads — Hybrid's worst case).
	if r := pc.Retry(8); r > 1e-10 {
		t.Errorf("retry probability at 8s = %v, want vanishing", r)
	}
	if r := pc.Retry(640); r < 1e-5 || r > 1e-3 {
		t.Errorf("retry probability at 640s = %v, want ~2e-4", r)
	}
}

// TestSharedProbCacheMemoizes: identical (config, correctT) keys must
// return the same table instance, distinct keys distinct instances.
func TestSharedProbCacheMemoizes(t *testing.T) {
	r8a := sharedProbCache(drift.RMetricConfig(), 8)
	r8b := sharedProbCache(drift.RMetricConfig(), 8)
	if r8a != r8b {
		t.Error("same key rebuilt the table")
	}
	if sharedProbCache(drift.MMetricConfig(), 8) == r8a {
		t.Error("distinct configs share a table")
	}
	if sharedProbCache(drift.RMetricConfig(), 4) == r8a {
		t.Error("distinct correctT share a table")
	}
	// The memoized table must be the one newProbCache would build.
	fresh := newProbCache(drift.RMetricConfig(), 8)
	for _, age := range []float64{1, 8, 640, 1e5} {
		if r8a.AnyError(age) != fresh.AnyError(age) ||
			r8a.Retry(age) != fresh.Retry(age) ||
			r8a.Silent(age) != fresh.Silent(age) {
			t.Fatalf("memoized table diverges from fresh build at age %g", age)
		}
	}
}

// TestSharedProbCacheConcurrent hammers the memoization from many
// goroutines; run with -race to certify campaign workers can share it.
func TestSharedProbCacheConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	ptrs := make([]*probCache, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pc := sharedProbCache(drift.RMetricConfig(), 8)
			for _, age := range []float64{1, 64, 640, 1e4} {
				_ = pc.AnyError(age)
				_ = pc.Retry(age)
			}
			ptrs[g] = pc
		}(g)
	}
	wg.Wait()
	for _, pc := range ptrs[1:] {
		if pc != ptrs[0] {
			t.Fatal("concurrent callers saw different tables")
		}
	}
}

// TestSharedTablesOneLookup: an engine's single lookup returns the very
// entries of the per-table memos, counts one hit or miss per table as
// those memos would, shares one entry among plans without a W=1 scan, and
// is cleared by PurgeSharedCaches.
func TestSharedTablesOneLookup(t *testing.T) {
	PurgeSharedCaches()
	scrubbing, hybrid := Scrubbing().Scrub, Hybrid().Scrub
	counts := func() (uint64, uint64) {
		hits, misses, _ := CacheStats()
		return hits, misses
	}
	lookup := func(plan Scrub, wantHits, wantMisses uint64) *engineTables {
		t.Helper()
		h0, m0 := counts()
		tables, err := sharedTables(drift.DefaultTempK, plan)
		if err != nil {
			t.Fatal(err)
		}
		if h, m := counts(); h-h0 != wantHits || m-m0 != wantMisses {
			t.Errorf("plan %+v: %d hits, %d misses, want %d and %d", plan, h-h0, m-m0, wantHits, wantMisses)
		}
		return tables
	}
	cold := lookup(scrubbing, 0, 3)
	if warm := lookup(scrubbing, 3, 0); warm != cold {
		t.Error("a second lookup rebuilt the tables")
	}
	rCfg, mCfg := drift.RMetricConfigAt(drift.DefaultTempK), drift.MMetricConfigAt(drift.DefaultTempK)
	frac, err := sharedSteadyRewrite(rCfg, scrubbing.Interval)
	if err != nil {
		t.Fatal(err)
	}
	if cold.r != sharedProbCache(rCfg, 8) || cold.m != sharedProbCache(mCfg, 8) || cold.steadyRewrite != frac {
		t.Error("the lookup's tables are not the per-table memos' entries")
	}
	w0 := lookup(hybrid, 2, 0)
	if w0.r != cold.r || w0.m != cold.m || w0.steadyRewrite != 0 {
		t.Error("a plan without a W=1 scan got other tables or a steady-state fraction")
	}
	if lookup(Scrub{}, 2, 0) != w0 {
		t.Error("plans without a W=1 scan do not share one entry")
	}
	if n := PurgeSharedCaches(); n != 3 {
		t.Errorf("purge evicted %d entries, want 2 tables and 1 fraction", n)
	}
	lookup(scrubbing, 0, 3)
}

// TestSharedSteadyRewrite checks the memoized fraction matches the direct
// analyzer computation and is stable across calls.
func TestSharedSteadyRewrite(t *testing.T) {
	cfg := drift.RMetricConfig()
	got, err := sharedSteadyRewrite(cfg, 8*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sharedSteadyRewrite(cfg, 8*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != again {
		t.Error("memoized fraction unstable")
	}
	an, err := reliability.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := an.SteadyStateRewriteFraction(8); got != want {
		t.Errorf("memoized fraction %v, direct %v", got, want)
	}
}

// TestProbCacheInterpolation bounds the interpolated lookups against
// direct quadrature at deliberately off-grid ages. The grid is
// logarithmic with 128 points over [1, 1e7] s, so linear interpolation
// between adjacent points must track the smooth binomial-tail curves to
// within a few percent; nearest-point snapping (the previous behavior)
// fails the tighter of these bounds near steep regions.
func TestProbCacheInterpolation(t *testing.T) {
	cfg := drift.RMetricConfig()
	pc := newProbCache(cfg, 8)
	const n = reliability.CellsPerLine
	direct := func(age float64) (anyE, retry, silent float64) {
		p := cfg.AvgCellErrorProb(age)
		anyE = 1 - math.Pow(1-p, float64(n))
		tailT := dist.BinomTailGT(n, p, 8)
		tailDetect := dist.BinomTailGT(n, p, 2*8+1)
		return anyE, max(tailT-tailDetect, 0), tailDetect
	}
	// Off-grid ages: geometric sweep deliberately incommensurate with the
	// 128-point grid, plus the ages the engine actually feeds (sampled
	// first-touch ages, scrub phases).
	for age := 1.37; age < 9e6; age *= 3.71 {
		wantAny, wantRetry, wantSilent := direct(age)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"AnyError", pc.AnyError(age), wantAny},
			{"Retry", pc.Retry(age), wantRetry},
			{"Silent", pc.Silent(age), wantSilent},
		} {
			// Relative bound where the probability is meaningful, absolute
			// floor below it (tiny tails are dominated by quadrature noise).
			tol := 0.05*c.want + 1e-9
			if math.Abs(c.got-c.want) > tol {
				t.Errorf("%s(%g) = %v, direct quadrature %v (tol %v)",
					c.name, age, c.got, c.want, tol)
			}
		}
	}
	// At grid-aligned ages interpolation must reproduce the table entry
	// exactly (weight 0), so grid-point behavior is unchanged.
	for i := 0; i < probCachePoints; i += 17 {
		age := math.Exp(pc.logMin + float64(i)*pc.step)
		if got := pc.AnyError(age); got != pc.pAnyError[i] {
			// Allow the one-ULP case where Exp(Log(age)) lands a hair off.
			j, f := pc.locate(age)
			if j != i || f > 1e-12 {
				t.Errorf("grid age %g: AnyError %v != table %v", age, got, pc.pAnyError[i])
			}
		}
	}
	// Interpolation is continuous across a grid boundary: values just
	// left and right of a grid point agree to first order.
	mid := math.Exp(pc.logMin + 40.5*pc.step)
	lo, hi := pc.AnyError(mid*(1-1e-9)), pc.AnyError(mid*(1+1e-9))
	if math.Abs(lo-hi) > 1e-9*(lo+hi+1) {
		t.Errorf("interpolation discontinuous near grid midpoint: %v vs %v", lo, hi)
	}
}
