package trace_test

import (
	"context"
	"testing"

	"readduo/internal/campaign"
	"readduo/internal/sim"
	"readduo/internal/trace"
)

// TestCampaignMemoHoldsJobSeedsOnly runs a campaign of 16 replicate seeds
// × 3 benchmarks, two designs per row, and requires the seed memo to hold
// at most one entry per job seed, each of them a job seed: an engine's own
// stream goes through the memo, a generator's core streams do not. With
// the cores' seeds stored too, the 48 rows would draw 240 seeds through
// the 64-entry memo and clear it again and again.
func TestCampaignMemoHoldsJobSeedsOnly(t *testing.T) {
	spec := campaign.Spec{Schemes: []sim.Scheme{sim.Ideal(), sim.Scrubbing()}, Budget: 2_000}
	for _, name := range []string{"gcc", "hmmer", "astar"} {
		b, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		spec.Benchmarks = append(spec.Benchmarks, b)
	}
	for s := int64(1); s <= 16; s++ {
		spec.Seeds = append(spec.Seeds, s)
	}
	jobSeeds := map[int64]bool{}
	for _, j := range spec.Jobs() {
		jobSeeds[j.Seed] = true
	}
	trace.SeedMemoSeeds(true)
	out, err := campaign.Run(context.Background(), spec, campaign.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Done != len(spec.Jobs()) {
		t.Fatalf("campaign finished %d of %d jobs", out.Done, len(spec.Jobs()))
	}
	seeds := trace.SeedMemoSeeds(false)
	if len(seeds) > len(jobSeeds) {
		t.Errorf("memo holds %d entries for %d job seeds", len(seeds), len(jobSeeds))
	}
	for _, s := range seeds {
		if !jobSeeds[s] {
			t.Errorf("memo holds seed %d, which is no job's seed", s)
		}
	}
}
