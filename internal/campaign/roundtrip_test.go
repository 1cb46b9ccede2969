package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"readduo/internal/ingest"
	"readduo/internal/sim"
	"readduo/internal/trace"
)

// TestIngestRoundTripAggregates is the workload subsystem's end-to-end
// property: generator → trace file → ingest-normalized → replay yields
// byte-identical campaign aggregates to running the generator directly.
// It pins every seam at once — the per-job seed derivation, the native
// file format, the ingest normalizer's passthrough, and the replayer's
// per-core demux all have to agree for the aggregates to match bit for
// bit.
func TestIngestRoundTripAggregates(t *testing.T) {
	bench, ok := trace.ByName("mcf")
	if !ok {
		t.Fatal("mcf missing from the suite")
	}
	const (
		campaignSeed = int64(7)
		cores        = 4 // sim.DefaultConfig core count
		budget       = 10_000
		records      = 100_000 // ample: the replayer must never rewind
	)
	schemes, err := sim.ParseList("Ideal,LWT-4")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Benchmarks: []trace.Benchmark{bench},
		Schemes:    schemes,
		Seeds:      []int64{campaignSeed},
		Budget:     budget,
	}

	aggregates := func(configure func(Job, *sim.Config)) []byte {
		t.Helper()
		s := spec
		s.Configure = configure
		outcome, err := Run(context.Background(), s, Options{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		matrices, err := outcome.Matrices(s)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(matrices)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	// Path A: the engine generates accesses itself.
	direct := aggregates(nil)

	// Path B: the same stream through the full file pipeline. The trace
	// is written with the derived per-job seed, exactly as `readduo-sim
	// trace -seed` would, then pushed through the ingest normalizer
	// (native passthrough) before replay.
	gen, err := trace.NewGenerator(bench, cores, JobSeed(campaignSeed, bench.Name))
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	w, err := trace.NewWriter(&file, bench.Name, cores)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		rec, err := gen.Next(i % cores)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var normalized bytes.Buffer
	n, err := ingest.Convert(&normalized, bytes.NewReader(file.Bytes()), ingest.FormatAuto, bench.Name, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != records {
		t.Fatalf("normalized %d records, want %d", n, records)
	}

	replayed := aggregates(func(_ Job, cfg *sim.Config) {
		rp, err := trace.NewReplayer(bytes.NewReader(normalized.Bytes()))
		if err != nil {
			return
		}
		cfg.Source = rp
	})

	if !bytes.Equal(direct, replayed) {
		t.Fatalf("aggregates diverge between direct generation and ingest-normalized replay:\ndirect:   %s\nreplayed: %s",
			direct, replayed)
	}
}
