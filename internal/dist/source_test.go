package dist

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// sourceRounds runs each stream past the 607-word wrap of its state:
// one round takes at least seven values.
const sourceRounds = 2000

// sourceRound takes one round of every draw kind the repo uses.
func sourceRound(r *rand.Rand) [7]uint64 {
	return [7]uint64{
		uint64(r.Int63()),
		r.Uint64(),
		math.Float64bits(r.Float64()),
		math.Float64bits(r.NormFloat64()),
		math.Float64bits(r.ExpFloat64()),
		uint64(r.Int63n(1e12 + 39)),
		uint64(r.Intn(1000)),
	}
}

// sourceSeeds are the seeds whose chain start math/rand special-cases or
// wraps (0, ±1, the zero replacement 89482311, multiples and neighbours of
// 2³¹−1 and 2³¹, the int64 extremes), plus splitmix-derived seeds like
// the ones MC shards draw.
func sourceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, lehmerX0, -lehmerX0,
		lehmerM, -lehmerM, lehmerM - 1, lehmerM + 1,
		1 << 31, -1 << 31, 2 * lehmerM, -2 * lehmerM,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	for i := uint64(0); i < 8; i++ {
		seeds = append(seeds, int64(Splitmix64(101+i)))
	}
	return seeds
}

// checkSameStream fails t at the first round where got and want differ.
func checkSameStream(t *testing.T, seed int64, got, want *rand.Rand) {
	t.Helper()
	for i := 0; i < sourceRounds; i++ {
		w := sourceRound(want)
		if g := sourceRound(got); g != w {
			t.Fatalf("seed %d round %d: Source drew %x, math/rand %x", seed, i, g, w)
		}
	}
}

// reseededRand returns a NewRand stream that drew warm values from
// another seed and was then re-seeded with seed, as a pooled stream is.
// Below 334 draws, the re-seed lands while the lazy source is still
// growing its state.
func reseededRand(seed int64, warm int) *rand.Rand {
	r := NewRand(^seed)
	for i := 0; i < warm; i++ {
		r.Int63()
	}
	r.Seed(seed)
	return r
}

// lazyWarms are draw counts at which a re-seed interrupts the lazy
// source's growth: before any draw, around its first and second chunk,
// around the feed cursor's wrap at 334 draws, and after the tap
// cursor's wrap at 607.
var lazyWarms = []int{0, 1, lazyChunk - 1, lazyChunk, lazyChunk + 1, 2 * lazyChunk, 333, 334, 335, 1000}

// TestSourceMatchesMathRand: a seeded Source is rand.NewSource's stream,
// through NewRand, through Seed on a fresh Source, and through the Seed
// of a NewRand stream that has already drawn from another seed, at any
// point of its lazy seeding.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds() {
		checkSameStream(t, seed, NewRand(seed), rand.New(rand.NewSource(seed)))

		var s Source
		s.Seed(seed)
		checkSameStream(t, seed, rand.New(&s), rand.New(rand.NewSource(seed)))

		for _, warm := range lazyWarms {
			checkSameStream(t, seed, reseededRand(seed, warm), rand.New(rand.NewSource(seed)))
		}
	}
}

// TestMulModM checks the folded reduction against a plain remainder at
// the edges of its domain and on a spread of pairs.
func TestMulModM(t *testing.T) {
	edges := []uint64{1, 2, lehmerA, lehmerX0, 1 << 30, lehmerM - 2, lehmerM - 1}
	for _, a := range edges {
		for _, b := range edges {
			if got, want := mulModM(a, b), a*b%lehmerM; got != want {
				t.Fatalf("mulModM(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
	for i := uint64(0); i < 100_000; i++ {
		r := Splitmix64(i)
		a, b := 1+(r&0xffffffff)%(lehmerM-1), 1+(r>>32)%(lehmerM-1)
		if got, want := mulModM(a, b), a*b%lehmerM; got != want {
			t.Fatalf("mulModM(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
}

// TestSourceSeedAllocatesNothing: seeding writes into the Source's own
// state.
func TestSourceSeedAllocatesNothing(t *testing.T) {
	var s Source
	seed := int64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		s.Seed(seed)
		seed++
	}); allocs != 0 {
		t.Errorf("Seed allocates %.1f times per call, want 0", allocs)
	}
}

// TestSourceSeedConcurrent seeds Sources from several goroutines at
// once, as concurrent trace seed memo misses do; the shared tables are
// only read. Run it under -race.
func TestSourceSeedConcurrent(t *testing.T) {
	seeds := sourceSeeds()
	want := make([]int64, len(seeds))
	for i, seed := range seeds {
		want[i] = rand.NewSource(seed).Int63()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s Source
			for i, seed := range seeds {
				s.Seed(seed)
				if got := s.Int63(); got != want[i] {
					t.Errorf("seed %d: first draw %d, math/rand %d", seed, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzSourceMatchesMathRand compares NewRand, an eagerly seeded Source
// and a NewRand stream re-seeded after warm draws with math/rand's
// source over arbitrary seeds.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for i, seed := range sourceSeeds() {
		f.Add(seed, uint16(lazyWarms[i%len(lazyWarms)]))
	}
	f.Fuzz(func(t *testing.T, seed int64, warm uint16) {
		checkSameStream(t, seed, NewRand(seed), rand.New(rand.NewSource(seed)))
		var s Source
		s.Seed(seed)
		checkSameStream(t, seed, rand.New(&s), rand.New(rand.NewSource(seed)))
		checkSameStream(t, seed, reseededRand(seed, int(warm)), rand.New(rand.NewSource(seed)))
	})
}

var sinkSource Source

func BenchmarkMathRandSeed(b *testing.B) {
	src := rand.NewSource(1)
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
}

func BenchmarkSourceSeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkSource.Seed(int64(i))
	}
}

var sinkFloat float64

// BenchmarkNormFloat64 draws normal deviates, as MC and cell-population
// shards do, from a NewRand stream past its lazy seeding and from an
// eagerly seeded Source: the draw path of each.
func BenchmarkNormFloat64(b *testing.B) {
	var eager Source
	eager.Seed(1)
	for _, c := range []struct {
		name string
		r    *rand.Rand
	}{{"lazy", NewRand(1)}, {"eager", rand.New(&eager)}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < rngLen; i++ {
				c.r.Int63()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkFloat = c.r.NormFloat64()
			}
		})
	}
}
