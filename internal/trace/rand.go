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
// ever draws from an entry: callers get clones. The mutex guards only the
// map; an entry never changes after insertion, so it is read and copied
// outside the lock.
var seedMemo struct {
	mu      sync.Mutex
	sources map[int64]reflect.Value
}

// NewRand returns a generator whose stream equals
// rand.New(rand.NewSource(seed)), draw for draw. The simulation engine
// and every generator core take their streams from it.
//
// Seeding a math/rand source runs its seeding generator over the whole
// 607-word state; copying that state costs about a tenth as much. Engine
// construction draws the same few seeds again and again (every scheme
// column of a campaign row shares its job seed), so NewRand seeds each
// seed once and hands every caller a copy of the freshly seeded state.
// The memo is safe for concurrent use, and since a copy is bit-identical
// to a fresh seeding, its contents cannot change any stream.
func NewRand(seed int64) *rand.Rand {
	seedMemo.mu.Lock()
	src, ok := seedMemo.sources[seed]
	seedMemo.mu.Unlock()
	if !ok {
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
	}
	clone := reflect.New(src.Type().Elem())
	clone.Elem().Set(src.Elem())
	return rand.New(clone.Interface().(rand.Source))
}
