// Command benchjson converts `go test -bench` text output into a
// stable JSON document, the format of the committed benchmark
// baselines (BENCH_<date>.json). Feed it the benchmark output on
// stdin:
//
//	go test -bench . -benchmem -count 5 | benchjson -note "..." > BENCH_2026-08-06.json
//
// It reads perfbench output the same way: each `# perfbench <workload>:`
// header names the benchmark perfbench/<workload>, and the result line
// that follows is one run, its metrics keyed by metric name. A result
// line that failed its output checks is refused:
//
//	for i in 1 2 3 4 5; do bash perfbench/run.sh --workload sim-sweep --seed 101 --seconds 10 --trace 0; done |
//	    benchjson -note "..." > results/BENCH_perfbench_x.json
//
// Every run of a benchmark is kept (not aggregated), so a baseline
// generated with -count 5 preserves the run-to-run spread and a later
// comparison can use whatever statistic it wants.
//
// Every document is stamped with governance metadata: a cohort hash
// binding the numbers to the configuration that produced them, and a
// per-benchmark sample count.
//
// The compare subcommand is the bench-regression gate: it diffs two
// baseline documents per benchmark (minimum across runs) and exits
// non-zero when any ratio exceeds the threshold:
//
//	benchjson compare -threshold 1.25 BENCH_old.json BENCH_new.json
//
// With -governance the gate also refuses comparisons across mixed
// cohorts and claims backed by fewer than -min-samples runs:
//
//	benchjson compare -governance -min-samples 5 BENCH_old.json BENCH_new.json
//
// The judge subcommand is the verdict on a perfbench speed claim. It
// pairs the runs of a parent and a change document in committed order
// and, for every workload and every end-to-end metric BENCHMARK.json
// declares, prints both medians, the parent's quartiles, the pairs the
// change won and one verdict: gain, regression, unresolved or within
// bound (see judgeCell). It exits 1 on any regression:
//
//	benchjson judge BENCHMARK.json results/BENCH_perfbench_x_parent.json results/BENCH_perfbench_x_change.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Run is one benchmark execution: the iteration count and every
// reported metric (ns/op, B/op, allocs/op, and custom b.ReportMetric
// values) keyed by unit.
type Run struct {
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Benchmark groups the runs of one benchmark name. Samples is the
// run count, stamped at generation time so a later governance check
// can tell how much evidence backs the claim even if runs are pruned.
type Benchmark struct {
	Name    string `json:"name"`
	Samples int    `json:"samples,omitempty"`
	Runs    []Run  `json:"runs"`
}

// Document is the top-level baseline file. Cohort is the governance
// identity: a hash of the configuration that produced the numbers
// (GOOS, GOARCH, pkg, and the benchmark set — deliberately not the
// CPU, so deterministic simulated metrics compare across machines).
// Two documents with different cohorts measured different things and
// must not be diffed as a regression claim.
type Document struct {
	GeneratedUnix int64       `json:"generated_unix"`
	Note          string      `json:"note,omitempty"`
	Cohort        string      `json:"cohort,omitempty"`
	GOOS          string      `json:"goos,omitempty"`
	GOARCH        string      `json:"goarch,omitempty"`
	Pkg           string      `json:"pkg,omitempty"`
	CPU           string      `json:"cpu,omitempty"`
	Benchmarks    []Benchmark `json:"benchmarks"`
}

// CohortHash derives the document's cohort identity from its
// configuration and benchmark set.
func CohortHash(doc *Document) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "goos=%s|goarch=%s|pkg=%s", doc.GOOS, doc.GOARCH, doc.Pkg)
	names := make([]string, len(doc.Benchmarks))
	for i, b := range doc.Benchmarks {
		names[i] = b.Name
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "|bench=%s", n)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// stampGovernance fills the governance fields: the cohort hash (unless
// the caller pinned one) and per-benchmark sample counts.
func stampGovernance(doc *Document, cohort string) {
	if cohort == "" {
		cohort = CohortHash(doc)
	}
	doc.Cohort = cohort
	for i := range doc.Benchmarks {
		doc.Benchmarks[i].Samples = len(doc.Benchmarks[i].Runs)
	}
}

// samples reports how many runs back a benchmark's claim, trusting the
// stamped count when present (pre-governance documents carry none).
func (b Benchmark) samples() int {
	if b.Samples > 0 {
		return b.Samples
	}
	return len(b.Runs)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "judge" {
		os.Exit(runJudge(os.Args[2:], os.Stdout, os.Stderr))
	}
	note := flag.String("note", "", "free-form provenance note stored in the document")
	cohort := flag.String("cohort", "", "explicit cohort identity (default: hash of goos/goarch/pkg/benchmark set)")
	flag.Parse()

	doc, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	doc.Note = *note
	doc.GeneratedUnix = time.Now().Unix()
	stampGovernance(doc, *cohort)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// Parse reads `go test -bench` or perfbench output and collects every
// benchmark run plus the header metadata. Other lines (test output,
// PASS/ok trailers, perfbench's commentary and ledger) are ignored.
func Parse(r io.Reader) (*Document, error) {
	doc := &Document{}
	byName := map[string]int{}
	add := func(name string, run Run) {
		i, seen := byName[name]
		if !seen {
			i = len(doc.Benchmarks)
			byName[name] = i
			doc.Benchmarks = append(doc.Benchmarks, Benchmark{Name: name})
		}
		doc.Benchmarks[i].Runs = append(doc.Benchmarks[i].Runs, run)
	}
	// perf is the benchmark named by the latest perfbench header; a
	// result line is read only after one.
	perf := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if name, ok := parsePerfbenchHeader(doc, line); ok {
			perf = name
			continue
		}
		if perf != "" && strings.HasPrefix(line, "{") {
			run, err := parsePerfbenchResult(line)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", perf, err)
			}
			add(perf, run)
			perf = ""
			continue
		}
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			doc.Pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		name, run, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		add(name, run)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	return doc, nil
}

// parseBenchLine splits one result line. The format is
//
//	BenchmarkName-8  <iterations>  <value> <unit>  [<value> <unit>]...
//
// The trailing -N GOMAXPROCS suffix is stripped from the name so runs
// on different machines keep comparable keys.
func parseBenchLine(line string) (string, Run, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", Run{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Run{}, false
	}
	run := Run{Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Run{}, false
		}
		run.Metrics[fields[i+1]] = v
	}
	if len(run.Metrics) == 0 {
		return "", Run{}, false
	}
	return name, run, true
}

// perfbenchPkg is the module that prints perfbench output; it stands in
// for the `pkg:` header of go test output in the cohort hash.
const perfbenchPkg = "readduo/perfbench"

// parsePerfbenchHeader recognizes perfbench's first line,
//
//	# perfbench sim-sweep: nproc=2 GOMAXPROCS=1 go1.24.0 linux/amd64 cpu="..."
//
// and returns the benchmark name it opens. It fills the document's
// platform fields from the line.
func parsePerfbenchHeader(doc *Document, line string) (string, bool) {
	rest, ok := strings.CutPrefix(line, "# perfbench ")
	if !ok {
		return "", false
	}
	workload, desc, ok := strings.Cut(rest, ":")
	if !ok || workload == "" || strings.ContainsAny(workload, " \t") {
		return "", false
	}
	doc.Pkg = perfbenchPkg
	desc, cpu, _ := strings.Cut(desc, " cpu=")
	if c, err := strconv.Unquote(cpu); err == nil {
		doc.CPU = c
	}
	for _, f := range strings.Fields(desc) {
		if goos, goarch, ok := strings.Cut(f, "/"); ok {
			doc.GOOS, doc.GOARCH = goos, goarch
		}
	}
	return "perfbench/" + workload, true
}

// parsePerfbenchResult reads one perfbench result line. The run's
// iteration count is the operations it attempted; a run whose outputs
// were wrong or whose operations failed is an error, never evidence.
func parsePerfbenchResult(line string) (Run, error) {
	var res struct {
		Attempted int64 `json:"attempted"`
		Correct   *bool `json:"correct"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		return Run{}, fmt.Errorf("result line: %w", err)
	}
	switch {
	case res.Correct == nil || !*res.Correct:
		return Run{}, fmt.Errorf("result line is not correct: %s", line)
	case res.Failed > 0:
		return Run{}, fmt.Errorf("result line has %d failed operations", res.Failed)
	case len(res.Metrics) == 0:
		return Run{}, fmt.Errorf("result line has no metrics")
	}
	run := Run{Iterations: res.Attempted, Metrics: make(map[string]float64, len(res.Metrics))}
	for name, m := range res.Metrics {
		run.Metrics[name] = m.Value
	}
	return run, nil
}
