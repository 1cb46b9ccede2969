package trace

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// drawRound takes one round of every draw kind the simulator uses.
func drawRound(r *rand.Rand) [5]uint64 {
	return [5]uint64{
		uint64(r.Int63()),
		math.Float64bits(r.Float64()),
		math.Float64bits(r.ExpFloat64()),
		math.Float64bits(r.NormFloat64()),
		uint64(r.Int63n(1 << 20)),
	}
}

// newRand builds a stream the way the engine and a generator do: a
// Reseed of an empty Rand.
func newRand(seed int64) *Rand {
	r := new(Rand)
	r.Reseed(seed)
	return r
}

// memoSeeds are the edge seeds plus the four per-core seeds a generator
// derives from one job seed.
func memoSeeds() []int64 {
	seeds := []int64{0, 1, -1, 12345, math.MaxInt64, math.MinInt64}
	const jobSeed = 0x2545f4914f6cdd1d
	for c := 0; c < 4; c++ {
		seeds = append(seeds, coreSeed(jobSeed, c))
	}
	return seeds
}

// TestNewRandMatchesFreshSource pins the memo's one promise: a stream is
// the freshly seeded one, draw for draw, whether a Reseed of an empty
// Rand seeded it on a miss, copied it on a hit, or restarted a stream
// that had already drawn from another seed.
func TestNewRandMatchesFreshSource(t *testing.T) {
	const rounds = 100_000
	used := newRand(7)
	for _, seed := range memoSeeds() {
		miss, hit := newRand(seed), newRand(seed)
		for i := 0; i < 1000; i++ {
			drawRound(&used.Rand)
		}
		used.Reseed(seed)
		fresh := rand.New(rand.NewSource(seed))
		for i := 0; i < rounds; i++ {
			want := drawRound(fresh)
			if got := drawRound(&miss.Rand); got != want {
				t.Fatalf("seed %d round %d: first stream drew %x, fresh source %x", seed, i, got, want)
			}
			if got := drawRound(&hit.Rand); got != want {
				t.Fatalf("seed %d round %d: second stream drew %x, fresh source %x", seed, i, got, want)
			}
			if got := drawRound(&used.Rand); got != want {
				t.Fatalf("seed %d round %d: reseeded stream drew %x, fresh source %x", seed, i, got, want)
			}
		}
	}
}

// TestReseedAllocatesNothing: restarting a stream copies state into the
// source it holds.
func TestReseedAllocatesNothing(t *testing.T) {
	r := newRand(1)
	seeds := memoSeeds()
	// Two passes leave every seed in the memo even if the first pass
	// started next to a full memo and cleared it partway.
	for pass := 0; pass < 2; pass++ {
		for _, seed := range seeds {
			r.Reseed(seed)
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		r.Reseed(seeds[i%len(seeds)])
		i++
	}); allocs != 0 {
		t.Errorf("Reseed allocates %.1f times per call, want 0", allocs)
	}
}

// TestNewRandClonesAreIndependent: drawing from one clone moves neither
// a second clone nor the memo entry. A math/rand source that held its
// state behind a pointer would share it across shallow copies and fail
// here.
func TestNewRandClonesAreIndependent(t *testing.T) {
	for _, seed := range memoSeeds() {
		a, b := newRand(seed), newRand(seed)
		for i := 0; i < 1000; i++ {
			a.Int63()
		}
		c := newRand(seed)
		fresh := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			want := fresh.Int63()
			if got := b.Int63(); got != want {
				t.Fatalf("seed %d draw %d: second clone moved with the first (%d, want %d)", seed, i, got, want)
			}
			if got := c.Int63(); got != want {
				t.Fatalf("seed %d draw %d: memo entry moved with a clone (%d, want %d)", seed, i, got, want)
			}
		}
	}
}

// TestNewRandConcurrent hammers the memo from several goroutines over
// more distinct seeds than it holds, so it resets while other callers
// read and clone entries. Run it under -race.
func TestNewRandConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 200
		distinct   = 3 * seedMemoEntries
		draws      = 1000
	)
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				seed := int64((i*7+g*13)%distinct) - distinct/2
				got, fresh := newRand(seed), rand.New(rand.NewSource(seed))
				for d := 0; d < draws; d++ {
					if a, b := got.Int63(), fresh.Int63(); a != b {
						errs <- "seed diverged from a fresh source"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	seedMemo.mu.Lock()
	n := len(seedMemo.sources)
	seedMemo.mu.Unlock()
	if n > seedMemoEntries {
		t.Fatalf("memo holds %d entries, bound is %d", n, seedMemoEntries)
	}
}

// BenchmarkReseedHit restarts a stream from a seed the memo holds: a
// copy of the seeded state, against dist's BenchmarkSourceSeed for a
// seeding.
func BenchmarkReseedHit(b *testing.B) {
	r := newRand(1)
	for i := 0; i < b.N; i++ {
		r.Reseed(1)
	}
}
