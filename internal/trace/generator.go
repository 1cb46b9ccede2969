package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// Generator produces deterministic per-core access streams for a benchmark
// profile (a rate-matched stand-in for replaying a Pin trace). Each core
// owns a disjoint address-space slice, modeling the paper's multiprogrammed
// 4-core setup where every core runs one instance of the workload.
type Generator struct {
	bench Benchmark
	cores []coreStream
}

type coreStream struct {
	rng      *rand.Rand
	base     uint64 // first line of this core's address slice
	wsLines  uint64
	hotLines uint64
	cursor   uint64 // streaming pointer
	meanGap  float64
	writeP   float64
	emitted  uint64 // records produced so far (burst phase clock)
}

// NewGenerator builds a generator for `cores` cores. Streams are
// deterministic functions of (benchmark, seed).
func NewGenerator(bench Benchmark, cores int, seed int64) (*Generator, error) {
	if err := bench.Validate(); err != nil {
		return nil, err
	}
	if cores < 1 || cores > 255 {
		return nil, fmt.Errorf("trace: core count %d out of range 1..255", cores)
	}
	apki := bench.RPKI + bench.WPKI
	g := &Generator{bench: bench, cores: make([]coreStream, cores)}
	for c := range g.cores {
		hot := uint64(bench.HotSetLines)
		g.cores[c] = coreStream{
			rng:      NewRand(coreSeed(seed, c)),
			base:     uint64(c) << 40, // disjoint per-core slices
			wsLines:  uint64(bench.WorkingSetLines),
			hotLines: hot,
			meanGap:  1000 / apki,
			writeP:   bench.WPKI / apki,
		}
	}
	return g, nil
}

// coreSeed derives core c's stream seed from the generator seed.
func coreSeed(seed int64, c int) int64 { return seed ^ int64(c+1)*0x9e3779b97f4a7c }

// Benchmark returns the profile driving this generator.
func (g *Generator) Benchmark() Benchmark { return g.bench }

// Cores returns the core count.
func (g *Generator) Cores() int { return len(g.cores) }

// Next produces the next access of the given core. The stream is infinite;
// callers stop at their instruction or record budget.
func (g *Generator) Next(core int) (Record, error) {
	if core < 0 || core >= len(g.cores) {
		return Record{}, fmt.Errorf("trace: core %d out of range", core)
	}
	cs := &g.cores[core]
	// Inter-access instruction gap: geometric with the profile's mean, so
	// accesses cluster and spread as real miss streams do. Bursty profiles
	// additionally modulate the mean over the record index — same RNG
	// draws, so BurstFactor == 0 reproduces the historical streams bit for
	// bit.
	meanGap := cs.meanGap
	if g.bench.BurstFactor > 0 {
		phase := 2 * math.Pi * float64(cs.emitted%uint64(g.bench.BurstPeriodRecs)) / float64(g.bench.BurstPeriodRecs)
		meanGap *= 1 + g.bench.BurstFactor*math.Sin(phase)
	}
	cs.emitted++
	gap := uint32(cs.rng.ExpFloat64() * meanGap)
	isWrite := cs.rng.Float64() < cs.writeP

	var line uint64
	u := cs.rng.Float64()
	switch {
	case u < g.bench.StreamFraction:
		// Sequential walk wrapping around the working set.
		cs.cursor = (cs.cursor + 1) % cs.wsLines
		line = cs.cursor
	case u < g.bench.StreamFraction+g.bench.HotFraction:
		// Hot-set reuse.
		line = uint64(cs.rng.Int63n(int64(cs.hotLines)))
	default:
		// Cold/uniform traffic over the full working set — the accesses
		// that surface first-touch (long-idle) lines.
		line = uint64(cs.rng.Int63n(int64(cs.wsLines)))
	}
	return Record{
		Core:  uint8(core),
		Write: isWrite,
		Line:  cs.base + line,
		Gap:   gap,
	}, nil
}
