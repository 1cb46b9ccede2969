package lifetime

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"readduo/internal/dist"
)

// referenceMC is the Monte-Carlo kernel as it was before pooled lazy
// streams and the radix sort, kept as the oracle SimulateMCContext must
// match bit for bit: every shard draws from its own
// rand.New(rand.NewSource(splitmix64(seed+i))), shards run one after
// another, the lifetimes go through sort.Float64s, and the mean is
// summed in sorted order.
func referenceMC(cfg MCConfig) (MCResult, error) {
	if err := cfg.Validate(); err != nil {
		return MCResult{}, err
	}
	lifetimes := make([]float64, cfg.Cells)
	base, extra := cfg.Cells/cfg.Shards, cfg.Cells%cfg.Shards
	offsets := make([]int, cfg.Shards+1)
	for i := 0; i < cfg.Shards; i++ {
		sz := base
		if i < extra {
			sz++
		}
		offsets[i+1] = offsets[i] + sz
	}
	for i := 0; i < cfg.Shards; i++ {
		rng := rand.New(rand.NewSource(int64(dist.Splitmix64(uint64(cfg.Seed) + uint64(i)))))
		for c := offsets[i]; c < offsets[i+1]; c++ {
			endurance := cfg.MedianEndurance * math.Exp(cfg.Sigma*rng.NormFloat64())
			if endurance < 1 {
				endurance = 1
			}
			lifetimes[c] = endurance / cfg.WearRate
		}
	}
	sort.Float64s(lifetimes)
	var sum float64
	for _, v := range lifetimes {
		sum += v
	}
	q := func(p float64) float64 {
		return lifetimes[int(p*float64(len(lifetimes)-1))]
	}
	res := MCResult{
		FirstFailSeconds: lifetimes[0],
		P01Seconds:       q(0.01),
		MedianSeconds:    q(0.50),
		MeanSeconds:      sum / float64(len(lifetimes)),
	}
	if math.IsInf(res.MeanSeconds, 0) {
		return MCResult{}, fmt.Errorf("lifetime: MC lifetimes overflow (mean %v s); lower the median endurance or sigma, or raise the wear rate", res.MeanSeconds)
	}
	return res, nil
}

// checkMatchesReference fails t unless SimulateMC returns want and
// wantErr, referenceMC's answer for cfg: the same MCResult, bit for bit,
// and the same error or none.
func checkMatchesReference(t *testing.T, cfg MCConfig, want MCResult, wantErr error) {
	t.Helper()
	got, gotErr := SimulateMC(cfg)
	if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%+v:\n got %+v, %v\nwant %+v, %v", cfg, got, gotErr, want, wantErr)
	}
}

// TestSimulateMCMatchesReference runs the kernel and its reference over a
// grid of population shapes. Sigma 0, and a median below one endurance
// (every cell clamps to 1), give populations in which values tie; a wear
// rate of 1e-290 puts lifetimes near the top of the float range, where
// sigma 3 stays finite and sigma 40 overflows into the error path.
func TestSimulateMCMatchesReference(t *testing.T) {
	const seeds = 20
	studies, failed := 0, 0
	for _, cells := range []int{1, 2, 31, 2000, 5001} {
		for _, shards := range []int{1, 3, 64} {
			if shards > cells {
				continue
			}
			for _, wear := range []float64{1e-3, 1e-290} {
				for _, sigma := range []float64{0, 0.25, 3, 40} {
					for _, median := range []float64{1e8, 0.5, 2} {
						for s := int64(0); s < seeds; s++ {
							cfg := MCConfig{
								Cells: cells, Shards: shards,
								MedianEndurance: median, Sigma: sigma, WearRate: wear,
								Seed: int64(dist.Splitmix64(uint64(s))),
							}
							want, wantErr := referenceMC(cfg)
							studies++
							if wantErr != nil {
								failed++
							}
							for _, workers := range []int{1, 0, 7} {
								cfg.Workers = workers
								checkMatchesReference(t, cfg, want, wantErr)
							}
						}
					}
				}
			}
		}
	}
	// The grid must reach both paths, or it tests less than it says.
	if failed == 0 || failed == studies {
		t.Fatalf("%d of %d reference studies failed; the grid must reach both the result and the overflow error", failed, studies)
	}
}

// FuzzSimulateMCMatchesReference compares the kernel with its reference
// over arbitrary seeds, population shapes and sigmas, invalid ones
// included: both must reject the same configurations, with the same
// error.
func FuzzSimulateMCMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(2000), uint8(64), 0.25)
	f.Add(int64(-7), uint16(31), uint8(3), 0.0)
	f.Add(int64(101), uint16(5001), uint8(255), 3.0)
	f.Add(int64(0), uint16(1), uint8(1), 400.0)
	f.Add(int64(5), uint16(10), uint8(11), 0.25)
	f.Add(int64(9), uint16(0), uint8(1), 0.25)
	f.Add(int64(3), uint16(100), uint8(7), -1.0)
	f.Add(int64(3), uint16(100), uint8(7), math.NaN())
	f.Add(int64(3), uint16(100), uint8(7), math.Inf(1))
	f.Fuzz(func(t *testing.T, seed int64, cells uint16, shards uint8, sigma float64) {
		cfg := MCConfig{
			Cells: int(cells), Shards: int(shards),
			MedianEndurance: 1e8, Sigma: sigma, WearRate: 1e-3,
			Seed: seed,
		}
		want, wantErr := referenceMC(cfg)
		checkMatchesReference(t, cfg, want, wantErr)
	})
}
