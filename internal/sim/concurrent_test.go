package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"readduo/internal/trace"
)

// Campaigns, sweeps and the server run many engines side by side, sharing
// the process-wide probability caches, the line tables and the Scheme
// values. The contract: for any scheme, bank count and number of
// concurrent copies ("shards"), every copy returns a Result bit-identical
// to a lone run — same execution time, same stats, same energy, same
// silent-error draws. Run with -race to certify the sharing.

func parallelTestSchemes() []Scheme {
	schemes := []Scheme{
		Ideal(), Scrubbing(), MMetric(), TLC(), Hybrid(), LWT(4, true),
	}
	// Physics families: temperature-scaled drift, the read-disturb channel
	// (its per-read rng draws must stay private to each run), and LWC's
	// parity-group write costing.
	for _, spec := range []string{
		"scrubbing:temp=250",
		"hybrid:temp=330,disturb=0.001",
		"lwc:r=16",
		"lwc:r=8,disturb=0.0005",
	} {
		s, err := Parse(spec)
		if err != nil {
			panic(err)
		}
		schemes = append(schemes, s)
	}
	return schemes
}

// runOnce is safe to call from any goroutine: it reports failure as an
// error rather than through t.
func runOnce(scheme Scheme, banks int) (*Result, error) {
	b, ok := trace.ByName("gcc")
	if !ok {
		return nil, errors.New("gcc benchmark missing")
	}
	cfg := DefaultConfig(b)
	cfg.CPU.InstrBudget = 8_000
	cfg.Seed = 7
	cfg.Mem.Banks = banks
	res, err := Run(cfg, scheme)
	if err != nil {
		return nil, fmt.Errorf("Run(%s, banks=%d): %w", scheme.Name(), banks, err)
	}
	return res, nil
}

func TestParallelEngineBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is slow")
	}
	for _, scheme := range parallelTestSchemes() {
		for _, banks := range []int{1, 4, 16} {
			lone, err := runOnce(scheme, banks)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("%s/banks=%d/shards=%d", scheme.Name(), banks, shards)
				t.Run(name, func(t *testing.T) {
					results := make([]*Result, shards)
					errs := make([]error, shards)
					var wg sync.WaitGroup
					for i := range shards {
						wg.Add(1)
						go func() {
							defer wg.Done()
							results[i], errs[i] = runOnce(scheme, banks)
						}()
					}
					wg.Wait()
					for i, res := range results {
						if errs[i] != nil {
							t.Fatal(errs[i])
						}
						if !reflect.DeepEqual(lone, res) {
							t.Errorf("copy %d of %d diverges:\n lone:       %+v\n concurrent: %+v", i, shards, lone, res)
						}
					}
				})
			}
		}
	}
}
