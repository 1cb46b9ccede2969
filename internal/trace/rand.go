package trace

import (
	"math/rand"
	"reflect"
	"sync"
)

// seedMemoEntries bounds the seed memo. Each entry is one freshly seeded
// math/rand source (~4.9 KB of state), so a full memo holds ~350 KB. An
// engine draws five streams (its own and one per core), so 64 entries
// hold twelve job seeds; campaigns run their jobs seed → benchmark →
// scheme, so only about as many job seeds as workers are live at once.
const seedMemoEntries = 64

// seedMemo maps a seed to a *rngSource freshly seeded with it. Nothing
// ever draws from an entry: callers get copies. The mutex guards only the
// map; an entry never changes after insertion, so it is read and copied
// outside the lock.
var seedMemo struct {
	mu      sync.Mutex
	sources map[int64]reflect.Value
}

// seeded returns the memo's freshly seeded source for seed, seeding it
// on a miss.
func seeded(seed int64) reflect.Value {
	seedMemo.mu.Lock()
	src, ok := seedMemo.sources[seed]
	seedMemo.mu.Unlock()
	if ok {
		return src
	}
	src = reflect.ValueOf(rand.NewSource(seed))
	seedMemo.mu.Lock()
	if seedMemo.sources == nil {
		seedMemo.sources = make(map[int64]reflect.Value, seedMemoEntries)
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
	// src is the *rngSource behind Rand, owned by this stream alone.
	src reflect.Value
}

// Reseed restarts r as rand.New(rand.NewSource(seed)), draw for draw.
//
// Seeding a math/rand source runs its seeding generator over the whole
// 607-word state; copying that state costs about a tenth as much. Engine
// construction draws the same few seeds again and again (every scheme
// column of a campaign row shares its job seed), so each seed is seeded
// once, in a process-wide memo, and Reseed copies the freshly seeded
// state into the source r already holds, allocating one only when r has
// none. The memo is safe for concurrent use, and since a copy is
// bit-identical to a fresh seeding, its contents cannot change any
// stream.
func (r *Rand) Reseed(seed int64) {
	memo := seeded(seed)
	if !r.src.IsValid() {
		r.src = reflect.New(memo.Type().Elem())
	}
	r.src.Elem().Set(memo.Elem())
	r.Rand = *rand.New(r.src.Interface().(rand.Source))
}
