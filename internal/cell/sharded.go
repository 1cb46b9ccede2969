package cell

import (
	"fmt"
	"math/rand"

	"readduo/internal/dist"
	"readduo/internal/drift"
	"readduo/internal/parallel"
)

// ShardedPopulation is Population's parallel form: the cohort is split
// into fixed shards, each owning a contiguous cell range and an
// independent RNG sub-stream derived as splitmix64(seed, shard). Every
// operation fans the per-cell work across a bounded worker pool and
// aggregates in shard order, so results are fully deterministic for a
// given (seed, shard count) — independent of the worker count and of
// goroutine scheduling — while the heavy kernels (programming, sensing
// sweeps, histogramming) scale with cores.
//
// Note the determinism contract is per (seed, shards): resharding the
// same seed re-partitions the RNG streams and yields a different (equally
// valid) cohort, which is why harnesses pin the shard count.
type ShardedPopulation struct {
	rcfg    drift.Config
	level   int
	shards  []popShard
	workers int
	size    int
}

type popShard struct {
	cells  []Cell
	rng    *rand.Rand
	offset int // global index of cells[0]
}

// NewShardedPopulation programs n cells to level at time 0, split into
// `shards` independent sub-streams seeded from `seed`. workers bounds the
// pool (<= 0 picks the machine's parallelism); it affects wall-clock
// only, never results.
func NewShardedPopulation(rcfg drift.Config, level, n int, seed int64, shards, workers int) (*ShardedPopulation, error) {
	if err := rcfg.Validate(); err != nil {
		return nil, fmt.Errorf("cell: %w", err)
	}
	if level < 0 || level >= drift.LevelCount {
		return nil, fmt.Errorf("cell: level %d out of range", level)
	}
	if n <= 0 {
		return nil, fmt.Errorf("cell: population size %d must be positive", n)
	}
	if shards < 1 || shards > n {
		return nil, fmt.Errorf("cell: shard count %d out of range 1..%d", shards, n)
	}
	sp := &ShardedPopulation{
		rcfg:    rcfg,
		level:   level,
		shards:  make([]popShard, shards),
		workers: workers,
		size:    n,
	}
	base, extra := n/shards, n%shards
	offset := 0
	for i := range sp.shards {
		sz := base
		if i < extra {
			sz++
		}
		sp.shards[i] = popShard{
			cells:  make([]Cell, sz),
			rng:    dist.NewRand(int64(dist.Splitmix64(uint64(seed) + uint64(i)))),
			offset: offset,
		}
		offset += sz
	}
	sp.each(func(s *popShard) {
		for c := range s.cells {
			s.cells[c].Program(rcfg, level, 0, s.rng)
		}
	})
	return sp, nil
}

// each runs fn once per shard on the worker pool.
func (sp *ShardedPopulation) each(fn func(s *popShard)) {
	parallel.ForEach(sp.workers, len(sp.shards), func(i int) {
		fn(&sp.shards[i])
	})
}

// Size returns the population size.
func (sp *ShardedPopulation) Size() int { return sp.size }

// Shards returns the pinned shard count (part of the determinism key).
func (sp *ShardedPopulation) Shards() int { return len(sp.shards) }

// DriftedCells returns the global indices of cells sensing at the wrong
// level at time now (R-metric), ascending.
func (sp *ShardedPopulation) DriftedCells(now float64) []int {
	parts := make([][]int, len(sp.shards))
	parallel.ForEach(sp.workers, len(sp.shards), func(i int) {
		s := &sp.shards[i]
		var out []int
		for c := range s.cells {
			cell := &s.cells[c]
			if cell.SenseR(sp.rcfg, now) != cell.Level() {
				out = append(out, s.offset+c)
			}
		}
		parts[i] = out
	})
	var total int
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// RewriteCells re-programs exactly the given global-index cells at time
// now — the differential write of Figure 6b. Each shard consumes its own
// RNG stream for its own cells, so the result is scheduling-independent.
func (sp *ShardedPopulation) RewriteCells(indices []int, now float64) {
	perShard := make([][]int, len(sp.shards))
	for _, gi := range indices {
		if gi < 0 || gi >= sp.size {
			continue
		}
		si := sp.shardOf(gi)
		perShard[si] = append(perShard[si], gi)
	}
	parallel.ForEach(sp.workers, len(sp.shards), func(i int) {
		s := &sp.shards[i]
		for _, gi := range perShard[i] {
			c := &s.cells[gi-s.offset]
			c.Program(sp.rcfg, c.Level(), now, s.rng)
		}
	})
}

// RewriteAll re-programs the whole cohort at time now (full-line write).
func (sp *ShardedPopulation) RewriteAll(now float64) {
	sp.each(func(s *popShard) {
		for c := range s.cells {
			s.cells[c].Program(sp.rcfg, s.cells[c].Level(), now, s.rng)
		}
	})
}

// shardOf locates the shard owning global index gi. Shard sizes differ by
// at most one, so the guess from uniform division is off by at most one
// step in either direction.
func (sp *ShardedPopulation) shardOf(gi int) int {
	i := gi * len(sp.shards) / sp.size
	if i >= len(sp.shards) {
		i = len(sp.shards) - 1
	}
	for i > 0 && gi < sp.shards[i].offset {
		i--
	}
	for i < len(sp.shards)-1 && gi >= sp.shards[i+1].offset {
		i++
	}
	return i
}

// Histogram bins the current log10 R values exactly as
// Population.Histogram, summing per-shard counts.
func (sp *ShardedPopulation) Histogram(now float64, lo, hi float64, bins int) []int {
	counts := make([]int, bins)
	if bins == 0 || hi <= lo {
		return counts
	}
	parts := make([][]int, len(sp.shards))
	w := (hi - lo) / float64(bins)
	parallel.ForEach(sp.workers, len(sp.shards), func(i int) {
		s := &sp.shards[i]
		local := make([]int, bins)
		for c := range s.cells {
			v := s.cells[c].LogR(sp.rcfg, now)
			b := int((v - lo) / w)
			if b < 0 {
				b = 0
			}
			if b >= bins {
				b = bins - 1
			}
			local[b]++
		}
		parts[i] = local
	})
	for _, local := range parts {
		for b, n := range local {
			counts[b] += n
		}
	}
	return counts
}

// GuardBandMass returns the fraction of the cohort within `fraction` of
// the mean-to-boundary distance, as Population.GuardBandMass.
func (sp *ShardedPopulation) GuardBandMass(now float64, fraction float64) float64 {
	bound := sp.rcfg.UpperBoundary(sp.level)
	mu := sp.rcfg.Levels[sp.level].MuLog
	threshold := bound - fraction*(bound-mu)
	counts := make([]int, len(sp.shards))
	parallel.ForEach(sp.workers, len(sp.shards), func(i int) {
		s := &sp.shards[i]
		var n int
		for c := range s.cells {
			if v := s.cells[c].LogR(sp.rcfg, now); v >= threshold && v <= bound {
				n++
			}
		}
		counts[i] = n
	})
	var n int
	for _, c := range counts {
		n += c
	}
	return float64(n) / float64(sp.size)
}
