package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"readduo/internal/sim"
	"readduo/internal/telemetry"
)

// TestRunWithTelemetry checks the campaign-level probes: every job shows
// up in exactly one outcome counter, the wall-time histogram sees each
// executed job, and the engine probes threaded through sim.Config fire.
func TestRunWithTelemetry(t *testing.T) {
	spec := testSpec(t, 2_000)
	reg := telemetry.NewRegistry("test")
	out := mustRun(t, spec, Options{Parallel: 2, Telemetry: reg})

	snap := reg.Snapshot()
	jobs := uint64(len(out.Records))
	if got := snap.Counters["campaign.jobs.ok"]; got != jobs {
		t.Errorf("jobs.ok = %d, want %d", got, jobs)
	}
	if got := snap.Histograms["campaign.job.wall_ms"].Count; got != jobs {
		t.Errorf("wall_ms observations = %d, want %d", got, jobs)
	}
	// The registry reached the engines: demand reads were counted.
	if snap.Counters["sim.read.r"]+snap.Counters["sim.read.m"] == 0 {
		t.Error("no engine read probes fired through Options.Telemetry")
	}
}

// TestRunTelemetryCountsPanics checks a panicking job lands in both the
// failure and panic counters. Configure runs inside runJob's recover
// scope, so panicking there exercises the same path as a panic deep in
// the simulator.
func TestRunTelemetryCountsPanics(t *testing.T) {
	spec := testSpec(t, 2_000)
	spec.Configure = func(job Job, cfg *sim.Config) {
		if job.Scheme.Name() == "M-metric" {
			panic("poisoned job")
		}
	}
	reg := telemetry.NewRegistry("test")
	out := mustRun(t, spec, Options{Parallel: 2, Telemetry: reg})
	snap := reg.Snapshot()
	if out.Failed == 0 {
		t.Fatal("poisoned jobs did not fail")
	}
	if got := snap.Counters["campaign.jobs.failed"]; got != uint64(out.Failed) {
		t.Errorf("jobs.failed = %d, want %d", got, out.Failed)
	}
	if got := snap.Counters["campaign.jobs.panic"]; got != uint64(out.Failed) {
		t.Errorf("jobs.panic = %d, want %d", got, out.Failed)
	}
}

// TestJournalTelemetryStamp checks the drain-time summary: a
// telemetry-enabled campaign with a journal stamps its counters, Open
// returns them merged on resume, and the resumed run's stamp accumulates
// on top.
func TestJournalTelemetryStamp(t *testing.T) {
	spec := testSpec(t, 2_000)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	header := spec.Header(1)

	j, err := Create(path, header)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry("test")
	out := mustRun(t, spec, Options{Parallel: 2, Journal: j, Telemetry: reg})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, done, prior, err := Open(path, header)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != len(out.Records) {
		t.Fatalf("resumed %d records, want %d", len(done), len(out.Records))
	}
	if prior == nil {
		t.Fatal("no telemetry summary journaled")
	}
	if prior.Jobs != len(out.Records) {
		t.Errorf("summary jobs = %d, want %d", prior.Jobs, len(out.Records))
	}
	wantOK := reg.Snapshot().Counters["campaign.jobs.ok"]
	if got := prior.Counters["campaign.jobs.ok"]; got != wantOK {
		t.Errorf("summary jobs.ok = %d, want %d", got, wantOK)
	}

	// Resume: everything replays from the journal, so the second run
	// executes zero jobs but still stamps its (fresh) registry.
	reg2 := telemetry.NewRegistry("test")
	out2 := mustRun(t, spec, Options{
		Parallel: 2, Journal: j2, Completed: done, Telemetry: reg2,
	})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if out2.Resumed != len(out.Records) {
		t.Fatalf("resumed = %d, want %d", out2.Resumed, len(out.Records))
	}

	_, _, merged, err := Open(path, header)
	if err != nil {
		t.Fatal(err)
	}
	if merged == nil {
		t.Fatal("merged summary missing after second run")
	}
	// Two stamps merged: executed-job count unchanged (second run ran
	// nothing), resumed counter visible from the second stamp.
	if merged.Jobs != len(out.Records) {
		t.Errorf("merged jobs = %d, want %d", merged.Jobs, len(out.Records))
	}
	if got := merged.Counters["campaign.jobs.resumed"]; got != uint64(len(out.Records)) {
		t.Errorf("merged jobs.resumed = %d, want %d", got, len(out.Records))
	}
}

// TestDecodeSkipsTelemetryLines checks Decode still returns only job
// records when summaries are interleaved.
func TestDecodeSkipsTelemetryLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := Create(path, Header{Version: journalVersion, Fingerprint: "f", Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Key: "k", Status: StatusOK}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendTelemetry(&TelemetrySummary{AtUnix: 9, Jobs: 1,
		Counters: map[string]uint64{"x": 2}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"telemetry"`) {
		t.Fatalf("journal missing telemetry line:\n%s", data)
	}
	_, records, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Key != "k" {
		t.Errorf("records = %+v, want the single job record", records)
	}
}

// TestTelemetrySummaryMerge covers the merge arithmetic directly.
func TestTelemetrySummaryMerge(t *testing.T) {
	a := &TelemetrySummary{AtUnix: 5, Jobs: 2, Counters: map[string]uint64{"x": 1, "y": 2}}
	a.Merge(&TelemetrySummary{AtUnix: 9, Jobs: 3, Counters: map[string]uint64{"y": 3, "z": 4}})
	if a.AtUnix != 9 || a.Jobs != 5 {
		t.Errorf("merged header = %+v", a)
	}
	want := map[string]uint64{"x": 1, "y": 5, "z": 4}
	for k, v := range want {
		if a.Counters[k] != v {
			t.Errorf("merged %s = %d, want %d", k, a.Counters[k], v)
		}
	}
	a.Merge(nil) // nil-safe both ways
	var nilSum *TelemetrySummary
	nilSum.Merge(a)
}

// TestJournalSync exercises the drain-time sync path on a live file.
func TestJournalSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := Create(path, Header{Version: journalVersion, Fingerprint: "f"})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Key: "k", Status: StatusOK}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Errorf("Sync: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var nilJ *Journal
	if err := nilJ.Sync(); err != nil {
		t.Errorf("nil Sync: %v", err)
	}
}
