package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
)

// runCLI runs one command line and returns its stdout and stderr.
func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := cli(context.Background(), args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

// TestTablesTranscript pins `readduo-sim tables` to the committed
// results/tables.txt byte for byte, and each single-table view to a
// contiguous slice of it.
func TestTablesTranscript(t *testing.T) {
	want, err := os.ReadFile("../../results/tables.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runCLI(t, "tables")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("tables output differs from results/tables.txt:\n%s", got)
	}
	for _, args := range [][]string{
		{"-report=config", "-metric=R"},
		{"-report=config", "-metric=M"},
		{"-report=config"},
		{"-report=ler", "-metric=R"},
		{"-report=ler", "-metric=M"},
		{"-report=wpolicy"},
	} {
		part, _, err := runCLI(t, append([]string{"tables"}, args...)...)
		if err != nil {
			t.Errorf("tables %v: %v", args, err)
			continue
		}
		if part == "" || !strings.Contains(got, part) {
			t.Errorf("tables %v is not a slice of the full transcript:\n%s", args, part)
		}
	}
}

// rejectCase is a command line that must fail, with an error containing
// want, before it prints any report.
type rejectCase struct {
	args []string
	want string
}

func checkRejected(t *testing.T, cases []rejectCase) {
	t.Helper()
	for _, tc := range cases {
		stdout, _, err := runCLI(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want %q", tc.args, err, tc.want)
		}
		if stdout != "" {
			t.Errorf("%q printed a report before failing:\n%s", tc.args, stdout)
		}
	}
}

// checkRun runs one command line on a small budget and checks its stdout
// holds every want; it returns stdout and stderr.
func checkRun(t *testing.T, args []string, wants ...string) (string, string) {
	t.Helper()
	args = append(args, "-benchmarks=gcc", "-budget=20000", "-parallel=2")
	out, stderr, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("%q output missing %q:\n%s", args, want, out)
		}
	}
	return out, stderr
}

// TestCLIValidation checks that bad root views, subcommands and flag
// placement fail before any simulation runs.
func TestCLIValidation(t *testing.T) {
	checkRejected(t, []rejectCase{
		{[]string{"-report=nonesuch"}, "unknown report"},
		{[]string{"edap", "-report=nonesuch"}, "unknown report"},
		{[]string{"tables", "-budget=1000"}, "not defined"},
		{[]string{"nonesuch"}, "unknown subcommand"},
		{[]string{"-budget=1000", "sweep"}, "subcommand must come first"},
	})
}

// TestSweepValidation checks that an unknown view, an unknown benchmark
// and malformed custom scheme lists fail before any simulation runs.
func TestSweepValidation(t *testing.T) {
	checkRejected(t, []rejectCase{
		{[]string{"sweep", "-report=nonesuch"}, "unknown report"},
		{[]string{"sweep", "-report=k", "-benchmarks=nonesuch"}, "unknown benchmark"},
		{[]string{"sweep", "-report=custom"}, "needs -schemes"},
		{[]string{"sweep", "-schemes=Ideal"}, "at least two schemes"},
		{[]string{"sweep", "-schemes=Ideal,bogus"}, "bogus"},
		{[]string{"sweep", "-report=k", "-schemes=Ideal,LWT-8"}, "custom sweep"},
	})
}

// TestTablesRejectsUnknown checks that an unknown table set and an
// unknown metric are errors.
func TestTablesRejectsUnknown(t *testing.T) {
	checkRejected(t, []rejectCase{
		{[]string{"tables", "-report=nonesuch"}, "unknown table set"},
		{[]string{"tables", "-metric=Q"}, "unknown metric"},
	})
}

// TestSweepAllMatchesSeparateViews runs the three sensitivity studies as
// one campaign over the union of their columns and checks the transcript
// equals the three studies run on their own.
func TestSweepAllMatchesSeparateViews(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	flags := []string{"-benchmarks=gcc", "-budget=30000", "-parallel=2"}
	all, stderr, err := runCLI(t, append([]string{"sweep"}, flags...)...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "finished 6/6 jobs") {
		t.Errorf("sweep did not run one 6-column campaign:\n%s", stderr)
	}
	var separate string
	for _, view := range []string{"k", "s", "conversion"} {
		out, _, err := runCLI(t, append([]string{"sweep", "-report=" + view}, flags...)...)
		if err != nil {
			t.Fatal(err)
		}
		separate += out
	}
	if all != separate {
		t.Errorf("sweep -report=all differs from k+s+conversion:\n%s\nvs\n%s", all, separate)
	}
}

// TestSweepCustom exercises a design point the fixed sweeps never built:
// an LWT-8 line with selective rewrites layered next to it.
func TestSweepCustom(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	checkRun(t, []string{"sweep", "-schemes=Ideal,lwt:k=8,Select-8:4"},
		"Custom sweep: execution time vs Ideal", "LWT-8", "Select-8:4", "MEAN")
}

// TestSweepTemperatureAxis runs a temperature sweep spelled as decorated
// names: cryo, default and hot points of the scrubbing scheme, with the
// 300 K point normalized to the plain scheme.
func TestSweepTemperatureAxis(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	checkRun(t, []string{"sweep", "-schemes=scrubbing@temp=250,scrubbing@temp=300,scrubbing@temp=350"},
		"Custom sweep: execution time vs Scrubbing@temp=250", "Scrubbing@temp=350", " Scrubbing ")
}

// TestEdapAreaOnly checks the static area view: no campaign runs, so
// nothing reaches the progress stream.
func TestEdapAreaOnly(t *testing.T) {
	out, stderr, err := runCLI(t, "edap", "-report=area")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hybrid overhead vs current-only  0.27%") || strings.Contains(out, "Figure 11") {
		t.Errorf("area view:\n%s", out)
	}
	if stderr != "" {
		t.Errorf("area view ran a campaign:\n%s", stderr)
	}
}

// TestEdapFull runs Table VII, the line footprints and Figure 11 over the
// default EDAP schemes.
func TestEdapFull(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full matrix")
	}
	checkRun(t, []string{"edap"},
		"Table VII", "Cells to store", "Product-D: EDAP (dynamic energy) normalized to TLC",
		"Product-S: EDAP (system energy) normalized to TLC", "Select-4:2")
}

// TestEdapCustomSchemes takes an arbitrary baseline and design point
// straight from the spec grammar, and rejects a bogus list.
func TestEdapCustomSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a matrix")
	}
	checkRun(t, []string{"edap", "-schemes=TLC,lwt:k=8"},
		"Product-D: EDAP (dynamic energy) normalized to TLC", "LWT-8")
	checkRejected(t, []rejectCase{
		{[]string{"edap", "-schemes=TLC,bogus"}, "bogus"},
	})
}

func TestPrintTableVII(t *testing.T) {
	var buf bytes.Buffer
	if err := tableVII(&buf, nil); err != nil {
		t.Fatalf("tableVII: %v", err)
	}
	if !strings.HasPrefix(buf.String(), "Table VII: subarray area occupancy") {
		t.Errorf("table VII:\n%s", buf.String())
	}
}

func TestFormatProb(t *testing.T) {
	if got := formatProb(1e-40); got != "too small" {
		t.Errorf("deep tail rendered %q", got)
	}
	if got := formatProb(2.5e-3); got != "2.50e-03" {
		t.Errorf("probability rendered %q", got)
	}
}
