package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"readduo/internal/campaign"
	"readduo/internal/ingest"
	"readduo/internal/trace"
)

// champSimSample is the checked-in ChampSim capture used across the
// repo's ingestion tests.
const champSimSample = "../../internal/ingest/testdata/sample.champsim.gz"

// TestTraceReplayChampSimSample converts the checked-in ChampSim sample
// to the native format and replays it through the full -trace campaign
// path: ingestion, per-job streaming replay, and a completed matrix.
func TestTraceReplayChampSimSample(t *testing.T) {
	src, err := os.Open(champSimSample)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	path := filepath.Join(t.TempDir(), "sample.rdtr")
	dst, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ingest.Convert(dst, src, ingest.FormatChampSim, "gcc", ingest.Options{Cores: 2})
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("sample converted to zero records")
	}

	opts := options{
		benchList: "gcc", schemeSet: "Ideal,LWT-4", budget: 20_000,
		seed: 1, traceFile: path,
	}
	spec, cleanup, err := buildSpec(opts, mustSchemes(t, opts.schemeSet))
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	outcome, err := campaign.Run(context.Background(), spec, campaign.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Failed != 0 || outcome.Interrupted {
		t.Fatalf("replay campaign: %+v", outcome)
	}
	matrices, err := outcome.Matrices(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := matrices[0].Matrix.Results[0]
	if res[0].Instructions == 0 || res[0].ExecTime <= 0 {
		t.Fatalf("replayed result empty: %+v", res[0])
	}
}

// TestTraceReplayDoesNotBufferCapture pins the streaming property: a
// capture far larger than any reasonable in-heap budget replays with
// flat memory, because jobs stream it through trace.NewReader instead
// of loading the file. The heap is measured while the spec (and its
// Configure closure) is still live — exactly the state in which the old
// load-the-whole-file implementation retained the full capture.
func TestTraceReplayDoesNotBufferCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a ~28 MiB capture; run without -short")
	}
	path := filepath.Join(t.TempDir(), "big.rdtr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, "gcc", 1)
	if err != nil {
		t.Fatal(err)
	}
	const records = 2_000_000 // ~28 MiB of 14-byte records
	for i := 0; i < records; i++ {
		if err := w.Write(trace.Record{
			Core:  0,
			Write: i%4 == 0,
			Line:  uint64(i % 8192),
			Gap:   1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	before := heap()
	opts := options{
		benchList: "gcc", schemeSet: "Ideal", budget: 20_000,
		seed: 1, traceFile: path,
	}
	spec, cleanup, err := buildSpec(opts, mustSchemes(t, opts.schemeSet))
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	outcome, err := campaign.Run(context.Background(), spec, campaign.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Failed != 0 {
		t.Fatalf("campaign failed: %+v", outcome)
	}
	after := heap()
	runtime.KeepAlive(spec)
	runtime.KeepAlive(outcome)

	var growth uint64
	if after > before {
		growth = after - before
	}
	if cap := uint64(info.Size()) / 4; growth > cap {
		t.Fatalf("heap grew %d bytes replaying a %d-byte capture (cap %d): capture was buffered",
			growth, info.Size(), cap)
	}
}

// TestTraceLostAfterCheckFailsJob removes or corrupts the capture after
// buildSpec has checked it. The job must fail and name the file rather
// than fall back to the synthetic generator, whose results would pass
// for the capture's.
func TestTraceLostAfterCheckFailsJob(t *testing.T) {
	for name, lose := range map[string]func(path string) error{
		"removed":   os.Remove,
		"corrupted": func(path string) error { return os.WriteFile(path, []byte("not a trace"), 0o644) },
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "lost.rdtr")
			if _, _, err := runCLI(t, "trace", "-benchmark=gcc", "-records=1000", "-cores=1", "-out="+path); err != nil {
				t.Fatal(err)
			}
			opts := options{
				benchList: "gcc", schemeSet: "Ideal", budget: 20_000,
				seed: 1, traceFile: path,
			}
			spec, cleanup, err := buildSpec(opts, mustSchemes(t, opts.schemeSet))
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			if err := lose(path); err != nil {
				t.Fatal(err)
			}
			outcome, err := campaign.Run(context.Background(), spec, campaign.Options{Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			if outcome.Failed != 1 {
				t.Fatalf("%d/%d jobs failed, want 1", outcome.Failed, len(outcome.Records))
			}
			if rec := outcome.Records[0]; !strings.Contains(rec.Error, path) {
				t.Errorf("job error %q does not name %s", rec.Error, path)
			}
		})
	}
}
