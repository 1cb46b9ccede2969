package trace

import (
	"math/rand"
	"sync"

	"readduo/internal/dist"
)

// seedMemoEntries bounds the seed memo. Each entry is one freshly seeded
// source (~4.9 KB of state), so a full memo holds ~350 KB. Only an
// engine's own stream goes through it (a generator seeds its cores
// directly), so 64 entries hold 64 job seeds; campaigns run their jobs
// seed → benchmark → scheme, so only about as many job seeds as workers
// are live at once.
const seedMemoEntries = 64

// seedMemo maps a seed to a dist.Source freshly seeded with it. Nothing
// ever draws from an entry: callers get copies. The mutex guards only the
// map; an entry never changes after insertion, so it is read and copied
// outside the lock.
var seedMemo struct {
	mu      sync.Mutex
	sources map[int64]*dist.Source
}

// seeded returns the memo's freshly seeded source for seed, seeding it
// on a miss.
func seeded(seed int64) *dist.Source {
	seedMemo.mu.Lock()
	src, ok := seedMemo.sources[seed]
	seedMemo.mu.Unlock()
	if ok {
		return src
	}
	src = new(dist.Source)
	src.Seed(seed)
	seedMemo.mu.Lock()
	if seedMemo.sources == nil {
		seedMemo.sources = make(map[int64]*dist.Source, seedMemoEntries)
	}
	if len(seedMemo.sources) >= seedMemoEntries {
		clear(seedMemo.sources)
	}
	seedMemo.sources[seed] = src
	seedMemo.mu.Unlock()
	return src
}

// Rand is a math/rand stream that can be restarted at a new seed in
// place. The simulation engine and every generator core draw from one.
// The zero Rand is ready for Reseed.
type Rand struct {
	rand.Rand
	// src is the source behind Rand, owned by this stream alone.
	src *dist.Source
}

// Reseed restarts r as rand.New(rand.NewSource(seed)), draw for draw.
//
// Seeding even a dist.Source computes 1,821 modular products for its
// 607-word state; copying that state costs a few percent as much
// (DESIGN §7 has the numbers). Engine construction draws the same few
// seeds again and again (every scheme column of a campaign row shares
// its job seed), so each seed is seeded once, in a process-wide memo,
// and Reseed copies the freshly seeded state into the source r already
// holds, allocating one only when r has none. The memo is safe for
// concurrent use, and since a copy is bit-identical to a fresh seeding,
// its contents cannot change any stream.
func (r *Rand) Reseed(seed int64) {
	memo := seeded(seed)
	if r.src == nil {
		r.src = new(dist.Source)
	}
	*r.src = *memo
	r.Rand = *rand.New(r.src)
}

// seedDirect restarts r as Reseed does, but seeds its source in place
// instead of copying a memo entry. A generator's core streams take it:
// their seeds recur only when a row starts again, and an engine rewinds
// its tape instead of re-seeding a row it just ran, so storing them would
// only push the engines' own seeds out of the memo.
func (r *Rand) seedDirect(seed int64) {
	if r.src == nil {
		r.src = new(dist.Source)
	}
	r.src.Seed(seed)
	r.Rand = *rand.New(r.src)
}
