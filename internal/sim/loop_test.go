package sim

import (
	"testing"

	"readduo/internal/trace"
)

// tieSource gives every core a gap-0 script, so all four cores issue at
// the same picosecond whenever none is blocked. Every fifth record of core
// c (k%5 == c) waits 299 instructions instead: with the issue cycle that
// is 150 ns at 2 GHz, one R-read latency, so the core's next issue lands
// on the completion of a read it sent to an idle bank. Two records in
// three are writes, which keeps a two-slot write queue full.
type tieSource struct{ pos [4]int }

func (s *tieSource) Next(core int) (trace.Record, error) {
	k := s.pos[core]
	s.pos[core]++
	rec := trace.Record{Core: uint8(core), Write: k%3 != 0, Line: uint64(core*97 + k%61)}
	if k%5 == core {
		rec.Gap = 299
	}
	return rec, nil
}

// TestEventLoopTiesPinned pins the event loop's order at one timestamp:
// memory completions first, then write-queue retries, then core issues in
// core index order. One bank, a two-slot write queue and gap-0 records on
// four cores put completions, retries and issues on the same picosecond
// all through the run: issuing cores before completions, or in another
// order, moves every digest. (Completions resume read-blocked cores and
// retries re-arm write-stalled ones, so those two commute.) Each digest
// is the sha256 of one full Result's JSON.
func TestEventLoopTiesPinned(t *testing.T) {
	want := map[string]string{
		"Ideal":  "b6ac32a0ed429d492e1b2bc444aa8e21105dc7e70cc223cb554c49f4916db323",
		"Hybrid": "d3efff955b6f22577a74c754a53830135d66e3580397aa49272fe173460c5373",
		"LWT-4":  "5b58333b2b7dbdb836a4eed4260be45f11521b54d386e1fa3d943aa1bc7d57e1",
	}
	b, ok := trace.ByName("gcc")
	if !ok {
		t.Fatal("gcc benchmark missing")
	}
	for _, scheme := range []Scheme{Ideal(), Hybrid(), LWT(4, true)} {
		cfg := DefaultConfig(b)
		cfg.CPU.InstrBudget = 200_000
		cfg.Mem.Banks = 1
		cfg.Mem.WriteQueueCap, cfg.Mem.WriteDrainHi, cfg.Mem.WriteDrainLo = 2, 2, 1
		cfg.Source = &tieSource{}
		res, err := Run(cfg, scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme.Name(), err)
		}
		if got := resultDigest(t, res); got != want[scheme.Name()] {
			t.Errorf("%s: result digest %s, want %s", scheme.Name(), got, want[scheme.Name()])
		}
	}
}
