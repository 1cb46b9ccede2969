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

// TestNewRandMatchesFreshSource pins the memo's one promise: a clone is
// the freshly seeded stream, draw for draw, whether NewRand seeded it on
// a miss or copied it on a hit.
func TestNewRandMatchesFreshSource(t *testing.T) {
	const rounds = 100_000
	for _, seed := range memoSeeds() {
		miss, hit := NewRand(seed), NewRand(seed)
		fresh := rand.New(rand.NewSource(seed))
		for i := 0; i < rounds; i++ {
			want := drawRound(fresh)
			if got := drawRound(miss); got != want {
				t.Fatalf("seed %d round %d: first NewRand drew %x, fresh source %x", seed, i, got, want)
			}
			if got := drawRound(hit); got != want {
				t.Fatalf("seed %d round %d: second NewRand drew %x, fresh source %x", seed, i, got, want)
			}
		}
	}
}

// TestNewRandClonesAreIndependent: drawing from one clone moves neither
// a second clone nor the memo entry. A math/rand source that held its
// state behind a pointer would share it across shallow copies and fail
// here.
func TestNewRandClonesAreIndependent(t *testing.T) {
	for _, seed := range memoSeeds() {
		a, b := NewRand(seed), NewRand(seed)
		for i := 0; i < 1000; i++ {
			a.Int63()
		}
		c := NewRand(seed)
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
				got, fresh := NewRand(seed), rand.New(rand.NewSource(seed))
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
