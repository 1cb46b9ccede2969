package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// Delta is one benchmark's old-vs-new comparison on the chosen metric.
type Delta struct {
	Name string
	// Old and New are the per-side statistics (minimum across runs — the
	// least-noise estimate of a benchmark's true cost).
	Old, New float64
	// Ratio is New/Old: 1.0 unchanged, >1 regression, <1 improvement.
	Ratio float64
	// Regressed marks ratios beyond the caller's threshold.
	Regressed bool
}

// minMetric returns the minimum value of the metric across a benchmark's
// runs, and whether any run reported it.
func minMetric(b Benchmark, metric string) (float64, bool) {
	best, found := math.Inf(1), false
	for _, r := range b.Runs {
		if v, ok := r.Metrics[metric]; ok && v < best {
			best, found = v, true
		}
	}
	return best, found
}

// Compare evaluates every benchmark present in both documents on the
// given metric, flagging those whose new/old ratio exceeds threshold.
// It returns the deltas (old-document order), the names present on only
// one side, and whether any benchmark regressed.
func Compare(oldDoc, newDoc *Document, metric string, threshold float64) (deltas []Delta, onlyOld, onlyNew []string, regressed bool) {
	newByName := map[string]Benchmark{}
	for _, b := range newDoc.Benchmarks {
		newByName[b.Name] = b
	}
	matched := map[string]bool{}
	for _, ob := range oldDoc.Benchmarks {
		nb, ok := newByName[ob.Name]
		if !ok {
			onlyOld = append(onlyOld, ob.Name)
			continue
		}
		matched[ob.Name] = true
		ov, okO := minMetric(ob, metric)
		nv, okN := minMetric(nb, metric)
		if !okO || !okN {
			// The metric is absent on a side (e.g. a custom unit): not
			// comparable, not a failure.
			continue
		}
		d := Delta{Name: ob.Name, Old: ov, New: nv}
		if ov > 0 {
			d.Ratio = nv / ov
		} else if nv == ov {
			d.Ratio = 1
		} else {
			d.Ratio = math.Inf(1)
		}
		d.Regressed = d.Ratio > threshold
		regressed = regressed || d.Regressed
		deltas = append(deltas, d)
	}
	for _, nb := range newDoc.Benchmarks {
		if !matched[nb.Name] {
			onlyNew = append(onlyNew, nb.Name)
		}
	}
	return deltas, onlyOld, onlyNew, regressed
}

func readDoc(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &doc, nil
}

// CheckGovernance enforces cohort integrity and minimum sample sizes
// between two baseline documents. It returns every violation rather
// than the first, so a refused comparison explains itself completely.
func CheckGovernance(oldDoc, newDoc *Document, minSamples int) []string {
	var violations []string
	if oldDoc.Cohort == "" {
		violations = append(violations, "old baseline carries no cohort stamp (regenerate with benchjson)")
	}
	if newDoc.Cohort == "" {
		violations = append(violations, "new baseline carries no cohort stamp (regenerate with benchjson)")
	}
	if oldDoc.Cohort != "" && newDoc.Cohort != "" && oldDoc.Cohort != newDoc.Cohort {
		violations = append(violations, fmt.Sprintf(
			"mixed cohorts: old %s vs new %s — the baselines measured different configurations",
			oldDoc.Cohort, newDoc.Cohort))
	}
	undersampled := func(side string, doc *Document) {
		for _, b := range doc.Benchmarks {
			if n := b.samples(); n < minSamples {
				violations = append(violations, fmt.Sprintf(
					"%s %s: %d sample(s), need >= %d", side, b.Name, n, minSamples))
			}
		}
	}
	undersampled("old", oldDoc)
	undersampled("new", newDoc)
	return violations
}

// SpreadOutliers flags benchmarks in doc whose per-seed spread on the
// metric — max run value over min run value — exceeds maxSpread. A wide
// spread means the replicate seeds disagree about the benchmark's cost,
// so its min-based claim rests on an outlier rather than a stable
// population; the comparison still runs, but the claim deserves triage
// (re-run, more seeds, or a look at what made one seed diverge).
func SpreadOutliers(side string, doc *Document, metric string, maxSpread float64) []string {
	var warnings []string
	for _, b := range doc.Benchmarks {
		lo, hi, found := math.Inf(1), math.Inf(-1), false
		for _, r := range b.Runs {
			if v, ok := r.Metrics[metric]; ok {
				lo, hi, found = math.Min(lo, v), math.Max(hi, v), true
			}
		}
		if !found || len(b.Runs) < 2 {
			continue
		}
		spread := math.Inf(1)
		switch {
		case lo > 0:
			spread = hi / lo
		case hi == lo:
			spread = 1
		}
		if spread > maxSpread {
			warnings = append(warnings, fmt.Sprintf(
				"%s %s: per-seed spread %.2fx exceeds %.2fx (min %.1f, max %.1f %s) — claim may rest on an outlier seed",
				side, b.Name, spread, maxSpread, lo, hi, metric))
		}
	}
	return warnings
}

// runCompare implements `benchjson compare [flags] old.json new.json`.
// It prints a per-benchmark delta table and exits 1 when any benchmark's
// new/old ratio exceeds -threshold — the bench-regression gate. With
// -governance it first refuses (exit 1, no table) comparisons across
// mixed cohorts or claims backed by fewer than -min-samples runs, and
// warns — without failing — about claims whose per-seed spread exceeds
// -max-spread, so noisy cells get triaged instead of silently trusted.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 1.25,
		"fail when new/old exceeds this ratio on the compared metric")
	metric := fs.String("metric", "ns/op", "metric to compare")
	governance := fs.Bool("governance", false,
		"refuse mixed-cohort baselines and under-sampled claims before comparing")
	minSamples := fs.Int("min-samples", 5,
		"with -governance, the minimum runs a benchmark claim must be backed by")
	maxSpread := fs.Float64("max-spread", 2.0,
		"with -governance, warn when a benchmark's per-seed spread (max/min of the compared metric) exceeds this ratio; 0 disables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchjson compare [-threshold 1.25] [-metric ns/op] [-governance] [-min-samples 5] [-max-spread 2.0] old.json new.json")
		return 2
	}
	oldDoc, err := readDoc(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	newDoc, err := readDoc(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	if *governance {
		if violations := CheckGovernance(oldDoc, newDoc, *minSamples); len(violations) > 0 {
			fmt.Fprintln(stderr, "benchjson: governance refused the comparison:")
			for _, v := range violations {
				fmt.Fprintln(stderr, "  -", v)
			}
			return 1
		}
		if *maxSpread > 0 {
			warnings := append(SpreadOutliers("old", oldDoc, *metric, *maxSpread),
				SpreadOutliers("new", newDoc, *metric, *maxSpread)...)
			if len(warnings) > 0 {
				fmt.Fprintln(stderr, "benchjson: outlier triage (comparison proceeds):")
				for _, w := range warnings {
					fmt.Fprintln(stderr, "  -", w)
				}
			}
		}
	}
	deltas, onlyOld, onlyNew, regressed := Compare(oldDoc, newDoc, *metric, *threshold)
	if len(deltas) == 0 {
		fmt.Fprintln(stderr, "benchjson: no common benchmarks report", *metric)
		return 2
	}
	fmt.Fprintf(stdout, "%-44s %14s %14s %8s\n", "benchmark", "old "+*metric, "new "+*metric, "ratio")
	for _, d := range deltas {
		mark := ""
		if d.Regressed {
			mark = "  REGRESSED"
		}
		fmt.Fprintf(stdout, "%-44s %14.1f %14.1f %7.3fx%s\n", d.Name, d.Old, d.New, d.Ratio, mark)
	}
	for _, n := range onlyOld {
		fmt.Fprintf(stdout, "%-44s only in old baseline\n", n)
	}
	for _, n := range onlyNew {
		fmt.Fprintf(stdout, "%-44s only in new baseline\n", n)
	}
	if regressed {
		fmt.Fprintf(stderr, "benchjson: regression beyond %.2fx threshold\n", *threshold)
		return 1
	}
	return 0
}
