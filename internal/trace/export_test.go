package trace

// SeedMemoSeeds empties the seed memo when clearMemo is set and returns the
// seeds it holds, for the external tests.
func SeedMemoSeeds(clearMemo bool) []int64 {
	seedMemo.mu.Lock()
	defer seedMemo.mu.Unlock()
	if clearMemo {
		clear(seedMemo.sources)
	}
	seeds := make([]int64, 0, len(seedMemo.sources))
	for s := range seedMemo.sources {
		seeds = append(seeds, s)
	}
	return seeds
}
