package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"readduo/internal/report"
	"readduo/internal/sim"
	"readduo/internal/trace"
)

func testSpec(t *testing.T, budget uint64) Spec {
	t.Helper()
	gcc, ok := trace.ByName("gcc")
	if !ok {
		t.Fatal("gcc missing")
	}
	hmmer, ok := trace.ByName("hmmer")
	if !ok {
		t.Fatal("hmmer missing")
	}
	return Spec{
		Benchmarks: []trace.Benchmark{gcc, hmmer},
		Schemes:    []sim.Scheme{sim.Ideal(), sim.MMetric(), sim.LWT(4, true)},
		Seeds:      []int64{3},
		Budget:     budget,
	}
}

func mustRun(t *testing.T, spec Spec, opts Options) *Outcome {
	t.Helper()
	out, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out
}

func mustMatrix(t *testing.T, spec Spec, out *Outcome) *report.Matrix {
	t.Helper()
	ms, err := out.Matrices(spec)
	if err != nil {
		t.Fatalf("Matrices: %v", err)
	}
	if len(ms) != 1 {
		t.Fatalf("seed matrices = %d", len(ms))
	}
	return ms[0].Matrix
}

func renderTable(t *testing.T, m *report.Matrix) []byte {
	t.Helper()
	rows, means, err := m.Normalized("Ideal", report.ExecTime)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteNormalizedTable(&buf, "t", m, rows, means); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSpecValidate covers the collision and emptiness checks.
func TestSpecValidate(t *testing.T) {
	spec := testSpec(t, 1000)
	if err := spec.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if err := (Spec{}).Validate(); err == nil {
		t.Error("empty spec accepted")
	}
	dup := testSpec(t, 1000)
	dup.Schemes = append(dup.Schemes, sim.Ideal())
	if err := dup.Validate(); err == nil {
		t.Error("duplicate scheme accepted")
	}
	dupB := testSpec(t, 1000)
	dupB.Benchmarks = append(dupB.Benchmarks, dupB.Benchmarks[0])
	if err := dupB.Validate(); err == nil {
		t.Error("duplicate benchmark accepted")
	}
	dupS := testSpec(t, 1000)
	dupS.Seeds = []int64{3, 3}
	if err := dupS.Validate(); err == nil {
		t.Error("duplicate seed accepted")
	}
}

// TestJobSeedDerivation checks the determinism contract: same campaign
// seed + benchmark => same job seed; schemes share a benchmark row's seed;
// different benchmarks and campaign seeds decorrelate.
func TestJobSeedDerivation(t *testing.T) {
	if JobSeed(1, "gcc") != JobSeed(1, "gcc") {
		t.Error("JobSeed not deterministic")
	}
	if JobSeed(1, "gcc") == JobSeed(1, "mcf") {
		t.Error("benchmarks share a seed")
	}
	if JobSeed(1, "gcc") == JobSeed(2, "gcc") {
		t.Error("campaign seeds share a job seed")
	}
	if JobSeed(1, "gcc") <= 0 {
		t.Errorf("JobSeed = %d, want positive", JobSeed(1, "gcc"))
	}
	spec := testSpec(t, 1000)
	jobs := spec.Jobs()
	if len(jobs) != 6 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	for i, job := range jobs {
		if job.Index != i {
			t.Errorf("job %d has index %d", i, job.Index)
		}
	}
	// All scheme columns of one benchmark row share the stream.
	if jobs[0].Seed != jobs[1].Seed || jobs[1].Seed != jobs[2].Seed {
		t.Error("scheme columns not paired on one seed")
	}
	if jobs[0].Seed == jobs[3].Seed {
		t.Error("benchmark rows share a seed")
	}
}

// TestDeterminismAcrossParallelism is the core guarantee: a campaign at
// -parallel=1 and -parallel=8 produces byte-identical aggregated tables.
func TestDeterminismAcrossParallelism(t *testing.T) {
	spec := testSpec(t, 25_000)
	serial := mustRun(t, spec, Options{Parallel: 1})
	wide := mustRun(t, spec, Options{Parallel: 8})
	if serial.Done != 6 || wide.Done != 6 || serial.Failed != 0 || wide.Failed != 0 {
		t.Fatalf("outcomes: serial %+v wide %+v", serial, wide)
	}
	mSerial := mustMatrix(t, spec, serial)
	mWide := mustMatrix(t, spec, wide)
	if !reflect.DeepEqual(mSerial, mWide) {
		t.Fatal("parallel=1 and parallel=8 matrices differ")
	}
	if !bytes.Equal(renderTable(t, mSerial), renderTable(t, mWide)) {
		t.Fatal("rendered tables differ across worker counts")
	}
}

// TestDeterminismAcrossParallelismLongRows is the long-row twin of
// TestDeterminismAcrossParallelism: mcf and lbm x three designs at 200k
// instructions per core, long enough that each row's engine tape spans
// several blocks. At Parallel 1 every job after its row's first replays
// the tape; at 2 and 8 rows split across engines, which generate their
// own. The matrices and the rendered table must be identical.
func TestDeterminismAcrossParallelismLongRows(t *testing.T) {
	spec := testSpec(t, 200_000)
	spec.Benchmarks = spec.Benchmarks[:0]
	for _, name := range []string{"mcf", "lbm"} {
		b, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		spec.Benchmarks = append(spec.Benchmarks, b)
	}
	serial := mustMatrix(t, spec, mustRun(t, spec, Options{Parallel: 1}))
	table := renderTable(t, serial)
	for _, p := range []int{2, 8} {
		out := mustRun(t, spec, Options{Parallel: p})
		if out.Done != 6 || out.Failed != 0 {
			t.Fatalf("parallel=%d outcome %+v", p, out)
		}
		m := mustMatrix(t, spec, out)
		if !reflect.DeepEqual(serial, m) {
			t.Fatalf("parallel=1 and parallel=%d matrices differ", p)
		}
		if !bytes.Equal(table, renderTable(t, m)) {
			t.Fatalf("rendered tables differ at parallel=%d", p)
		}
	}
}

// TestPanicBecomesFailedJob: a panicking simulation must surface as a
// failed-job record, not kill the process, and aggregation must refuse the
// incomplete matrix by name.
func TestPanicBecomesFailedJob(t *testing.T) {
	spec := testSpec(t, 15_000)
	spec.Configure = func(job Job, cfg *sim.Config) {
		if job.Benchmark.Name == "hmmer" && job.Scheme.Name() == "M-metric" {
			panic("injected test panic")
		}
	}
	out := mustRun(t, spec, Options{Parallel: 4})
	if out.Failed != 1 || out.Done != 5 {
		t.Fatalf("outcome = %+v", out)
	}
	var failed *Record
	for i := range out.Records {
		if out.Records[i].Status == StatusFailed {
			failed = &out.Records[i]
		}
	}
	if failed == nil || !strings.Contains(failed.Error, "injected test panic") {
		t.Fatalf("failed record = %+v", failed)
	}
	if failed.Key != "s0/hmmer/M-metric" {
		t.Errorf("failed key = %q", failed.Key)
	}
	if _, err := out.Matrices(spec); err == nil ||
		!strings.Contains(err.Error(), "s0/hmmer/M-metric") {
		t.Errorf("aggregation error = %v", err)
	}
}

// TestResumeFromTruncatedJournal kills a campaign mid-journal (simulated by
// truncating the file inside the final record) and resumes: the resumed
// campaign must skip completed jobs and still produce the same final matrix.
func TestResumeFromTruncatedJournal(t *testing.T) {
	spec := testSpec(t, 25_000)
	header := spec.Header(42)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")

	// Reference: a clean journaled run.
	j, err := Create(path, header)
	if err != nil {
		t.Fatal(err)
	}
	ref := mustRun(t, spec, Options{Parallel: 2, Journal: j})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	refMatrix := mustMatrix(t, spec, ref)

	// Truncate inside the last record: header + 3 complete records + a
	// torn fourth line, as a SIGKILL mid-write would leave it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 7 {
		t.Fatalf("journal has %d lines", len(lines))
	}
	torn := append([]byte(nil), bytes.Join(lines[:4], nil)...)
	torn = append(torn, lines[4][:len(lines[4])/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, done, _, err := Open(path, header)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(done) != 3 {
		t.Fatalf("recovered %d records, want 3", len(done))
	}
	var executed atomic.Int64
	spec.Configure = func(Job, *sim.Config) { executed.Add(1) }
	resumed, err := Run(context.Background(), spec, Options{Parallel: 2, Journal: j2, Completed: done})
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != 3 || resumed.Done != 6 {
		t.Fatalf("resumed outcome = %+v", resumed)
	}
	if got := executed.Load(); got != 3 {
		t.Errorf("resume executed %d jobs, want 3", got)
	}
	resumedMatrix := mustMatrix(t, spec, resumed)
	if !reflect.DeepEqual(refMatrix, resumedMatrix) {
		t.Fatal("resumed matrix differs from uninterrupted run")
	}

	// The repaired journal must now replay to a full matrix on its own.
	_, records, err := DecodeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]bool{}
	for _, rec := range records {
		byKey[rec.Key] = true
	}
	if len(byKey) != 6 {
		t.Errorf("journal covers %d unique jobs, want 6", len(byKey))
	}
}

// TestRestoreSpecRoundTrip: Spec -> Header -> RestoreSpec reproduces the
// same campaign, job for job.
func TestRestoreSpecRoundTrip(t *testing.T) {
	spec := testSpec(t, 15_000)
	h := spec.Header(7)
	restored, err := RestoreSpec(h)
	if err != nil {
		t.Fatalf("RestoreSpec: %v", err)
	}
	if restored.Fingerprint() != spec.Fingerprint() {
		t.Errorf("fingerprint %s, want %s", restored.Fingerprint(), spec.Fingerprint())
	}
	if !reflect.DeepEqual(restored.Jobs(), spec.Jobs()) {
		t.Error("restored job list differs")
	}

	bad := h
	bad.Benchmarks = append([]string{"nonesuch"}, h.Benchmarks[1:]...)
	if _, err := RestoreSpec(bad); err == nil {
		t.Error("unknown benchmark restored")
	}
	bad = h
	bad.Schemes = append([]string{"bogus"}, h.Schemes[1:]...)
	if _, err := RestoreSpec(bad); err == nil {
		t.Error("unknown scheme restored")
	}
	bad = h
	bad.Budget++ // header no longer describes the fingerprinted campaign
	if _, err := RestoreSpec(bad); err == nil {
		t.Error("fingerprint mismatch restored")
	}
}

// TestPreRefactorJournalResumes pins journal compatibility across the
// policy refactor: headers serialize schemes as name strings ("LWT-4"),
// and the fingerprint below was computed from those names before schemes
// became composed policy values. A journal written back then must still
// restore to a runnable spec and resume.
func TestPreRefactorJournalResumes(t *testing.T) {
	h := Header{
		Version:     journalVersion,
		Fingerprint: "645673b2f343de80", // FNV-64a of the name-based identity
		CreatedUnix: 99,
		Budget:      15_000,
		Seeds:       []int64{1},
		Benchmarks:  []string{"gcc"},
		Schemes:     []string{"Ideal", "LWT-4", "Select-4:2"},
		Jobs:        3,
	}
	spec, err := RestoreSpec(h)
	if err != nil {
		t.Fatalf("RestoreSpec(pre-refactor header): %v", err)
	}
	if got := spec.Header(99); !reflect.DeepEqual(got, h) {
		t.Fatalf("restored header %+v, want %+v", got, h)
	}

	// Journal the campaign, then cut it back to one completed record —
	// the state an interrupted pre-refactor campaign left on disk.
	path := filepath.Join(t.TempDir(), "old.jsonl")
	j, err := Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, spec, Options{Parallel: 1, Journal: j})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if err := os.WriteFile(path, bytes.Join(lines[:2], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, done, _, err := Open(path, spec.Header(99))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(done) != 1 {
		t.Fatalf("recovered %d records, want 1", len(done))
	}
	resumed, err := Run(context.Background(), spec, Options{Parallel: 1, Journal: j2, Completed: done})
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != 1 || resumed.Done != 3 {
		t.Fatalf("resumed outcome = %+v", resumed)
	}
	if _, err := resumed.Matrices(spec); err != nil {
		t.Fatalf("resumed matrix: %v", err)
	}
}

// TestGracefulDrain cancels mid-campaign: in-flight jobs finish, the
// journal holds what completed, and the outcome reports interruption.
func TestGracefulDrain(t *testing.T) {
	spec := testSpec(t, 25_000)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	spec.Configure = func(Job, *sim.Config) {
		if started.Add(1) == 1 {
			cancel() // cancel while the first job is in flight
		}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "drain.jsonl")
	j, err := Create(path, spec.Header(1))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(ctx, spec, Options{Parallel: 1, Journal: j})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !out.Interrupted {
		t.Fatal("outcome not marked interrupted")
	}
	if out.Done == 0 || out.Remaining == 0 {
		t.Fatalf("drain outcome = %+v", out)
	}
	_, records, err := DecodeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != out.Done {
		t.Errorf("journal has %d records, outcome says %d done", len(records), out.Done)
	}
	if _, err := out.Matrices(spec); err == nil {
		t.Error("interrupted outcome aggregated without error")
	}
}

// TestStaleCompletedRecordIsRerun: a journal record whose seed no longer
// matches the derived job seed must be re-executed, not trusted.
func TestStaleCompletedRecordIsRerun(t *testing.T) {
	spec := testSpec(t, 15_000)
	out := mustRun(t, spec, Options{Parallel: 2})
	done := map[string]Record{}
	for _, rec := range out.Records {
		rec.Seed++ // corrupt the provenance
		done[rec.Key] = rec
	}
	again := mustRun(t, spec, Options{Parallel: 2, Completed: done})
	if again.Resumed != 0 {
		t.Errorf("resumed %d stale records", again.Resumed)
	}
	if again.Done != 6 {
		t.Errorf("outcome = %+v", again)
	}
}

// TestMultiSeedMatrices checks replicate expansion and per-seed folding.
func TestMultiSeedMatrices(t *testing.T) {
	spec := testSpec(t, 15_000)
	spec.Seeds = []int64{3, 4}
	out := mustRun(t, spec, Options{Parallel: 4})
	if out.Done != 12 {
		t.Fatalf("outcome = %+v", out)
	}
	ms, err := out.Matrices(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].Seed != 3 || ms[1].Seed != 4 {
		t.Fatalf("seed matrices = %+v", ms)
	}
	for _, sm := range ms {
		for i := range sm.Matrix.Results {
			for j, r := range sm.Matrix.Results[i] {
				if r == nil {
					t.Fatalf("seed %d missing result %d/%d", sm.Seed, i, j)
				}
				if r.Benchmark != sm.Matrix.Benchmarks[i] || r.Scheme != sm.Matrix.Schemes[j] {
					t.Errorf("misplaced result %s/%s at %d/%d", r.Benchmark, r.Scheme, i, j)
				}
			}
		}
	}
	// Different replicate seeds must actually decorrelate the streams.
	if reflect.DeepEqual(ms[0].Matrix.Results[0][0], ms[1].Matrix.Results[0][0]) {
		t.Error("replicates produced identical results")
	}
}

// TestWriteSummary renders the partial-progress table.
func TestWriteSummary(t *testing.T) {
	spec := testSpec(t, 15_000)
	spec.Configure = func(job Job, cfg *sim.Config) {
		if job.Index == 5 {
			cfg.EpochReads = -1 // invalid config: job fails cleanly
		}
	}
	out := mustRun(t, spec, Options{Parallel: 2})
	var buf bytes.Buffer
	if err := out.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{"s0/gcc/Ideal", "ok", "FAILED", "s0/hmmer/LWT-4"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
}
