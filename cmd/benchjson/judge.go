package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// EndToEnd is one end-to-end metric declared in BENCHMARK.json: which
// direction is better and the relative bound a change may move it by.
type EndToEnd struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// The judge's verdicts, in the order they are checked.
const (
	VerdictGain       = "gain"
	VerdictRegression = "regression"
	VerdictUnresolved = "unresolved"
	VerdictWithin     = "within bound"
)

// gainMinPairs and gainWinShare are the gain verdict's sample gate: at
// least ten pairs, won in at least nine of ten.
const (
	gainMinPairs = 10
	gainWinShare = 0.9
)

// Cell is the judgement of one workload on one end-to-end metric.
type Cell struct {
	Benchmark, Metric string
	// ParentMedian and ChangeMedian are each side's median over its runs;
	// ParentQ1 and ParentQ3 are the parent's quartiles.
	ParentMedian, ChangeMedian float64
	ParentQ1, ParentQ3         float64
	// Wins counts the pairs the change won in the better direction. Pairs
	// are the runs of both sides matched in committed order.
	Wins, Pairs int
	Verdict     string
}

// readEndToEnd reads the end-to-end metrics of a BENCHMARK.json.
func readEndToEnd(path string) ([]EndToEnd, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []EndToEnd `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	for _, m := range spec.EndToEnd {
		if m.Better != "higher" && m.Better != "lower" {
			return nil, fmt.Errorf("%s: metric %s: better is %q, want higher or lower", path, m.Name, m.Better)
		}
	}
	return spec.EndToEnd, nil
}

// quantile returns the q-quantile of sorted values, interpolating
// linearly between order statistics.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// metricRuns returns a benchmark's values of one metric, in run order.
func metricRuns(b Benchmark, metric string) []float64 {
	var out []float64
	for _, r := range b.Runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// judgeCell applies the verdict rule to one workload and metric. gain
// needs at least ten pairs, a win in at least 90% of them, and medians
// further apart than the parent's interquartile range, in the better
// direction. Otherwise regression is a change median worse than the
// parent's by more than bound times the parent's median. Otherwise
// unresolved is a parent whose own spread, (max - min) / median, exceeds
// the bound, unless every change run beats every parent run. Anything
// else is within bound.
func judgeCell(m EndToEnd, name string, parent, change []float64) Cell {
	// better reports how far a lies past b in the better direction.
	better := func(a, b float64) float64 {
		if m.Better == "lower" {
			return b - a
		}
		return a - b
	}
	c := Cell{Benchmark: name, Metric: m.Name, Pairs: min(len(parent), len(change))}
	for i := 0; i < c.Pairs; i++ {
		if better(change[i], parent[i]) > 0 {
			c.Wins++
		}
	}
	p, ch := slices.Clone(parent), slices.Clone(change)
	slices.Sort(p)
	slices.Sort(ch)
	c.ParentMedian, c.ChangeMedian = quantile(p, 0.5), quantile(ch, 0.5)
	c.ParentQ1, c.ParentQ3 = quantile(p, 0.25), quantile(p, 0.75)
	gain := better(c.ChangeMedian, c.ParentMedian)
	spread := (p[len(p)-1] - p[0]) / math.Abs(c.ParentMedian)
	beatsAll := better(ch[0], p[len(p)-1]) > 0 && better(ch[len(ch)-1], p[0]) > 0
	switch {
	case c.Pairs >= gainMinPairs && float64(c.Wins) >= gainWinShare*float64(c.Pairs) &&
		gain > c.ParentQ3-c.ParentQ1:
		c.Verdict = VerdictGain
	case -gain > m.Bound*math.Abs(c.ParentMedian):
		c.Verdict = VerdictRegression
	case spread > m.Bound && !beatsAll:
		c.Verdict = VerdictUnresolved
	default:
		c.Verdict = VerdictWithin
	}
	return c
}

// Judge judges every workload both documents hold on every end-to-end
// metric both report, in the parent document's order. It also returns
// the workloads present on one side only.
func Judge(metrics []EndToEnd, parent, change *Document) (cells []Cell, onlyParent, onlyChange []string) {
	changeByName := map[string]Benchmark{}
	for _, b := range change.Benchmarks {
		changeByName[b.Name] = b
	}
	matched := map[string]bool{}
	for _, pb := range parent.Benchmarks {
		cb, ok := changeByName[pb.Name]
		if !ok {
			onlyParent = append(onlyParent, pb.Name)
			continue
		}
		matched[pb.Name] = true
		for _, m := range metrics {
			pv, cv := metricRuns(pb, m.Name), metricRuns(cb, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			cells = append(cells, judgeCell(m, pb.Name, pv, cv))
		}
	}
	for _, cb := range change.Benchmarks {
		if !matched[cb.Name] {
			onlyChange = append(onlyChange, cb.Name)
		}
	}
	return cells, onlyParent, onlyChange
}

// runJudge implements `benchjson judge BENCHMARK.json parent.json
// change.json`: one verdict per workload and end-to-end metric, exit 1
// on any regression.
func runJudge(args []string, stdout, stderr io.Writer) int {
	if len(args) != 3 {
		fmt.Fprintln(stderr, "usage: benchjson judge BENCHMARK.json parent.json change.json")
		return 2
	}
	metrics, err := readEndToEnd(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	parent, err := readDoc(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	change, err := readDoc(args[2])
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	cells, onlyParent, onlyChange := Judge(metrics, parent, change)
	if len(cells) == 0 {
		fmt.Fprintln(stderr, "benchjson: the documents share no workload reporting an end-to-end metric")
		return 2
	}
	fmt.Fprintf(stdout, "%-22s %-17s %11s %11s %8s %23s %7s  %s\n",
		"benchmark", "metric", "parent med", "change med", "change", "parent Q1..Q3", "wins", "verdict")
	regressed := false
	for _, c := range cells {
		fmt.Fprintf(stdout, "%-22s %-17s %11.4g %11.4g %+7.1f%% %11.4g..%-10.4g %7s  %s\n",
			c.Benchmark, c.Metric, c.ParentMedian, c.ChangeMedian,
			100*(c.ChangeMedian-c.ParentMedian)/math.Abs(c.ParentMedian),
			c.ParentQ1, c.ParentQ3, fmt.Sprintf("%d/%d", c.Wins, c.Pairs), c.Verdict)
		regressed = regressed || c.Verdict == VerdictRegression
	}
	for _, n := range onlyParent {
		fmt.Fprintf(stdout, "%-22s only in the parent document\n", n)
	}
	for _, n := range onlyChange {
		fmt.Fprintf(stdout, "%-22s only in the change document\n", n)
	}
	if regressed {
		fmt.Fprintln(stderr, "benchjson: regression beyond a BENCHMARK.json bound")
		return 1
	}
	return 0
}
