package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var (
	higher = EndToEnd{Name: "sim_minstr_per_s", Better: "higher", Bound: 0.25}
	lower  = EndToEnd{Name: "setup_s", Better: "lower", Bound: 0.25}
)

// ramp returns n values from base, each step larger by step.
func ramp(n int, base, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + float64(i)*step
	}
	return out
}

func TestJudgeCellVerdicts(t *testing.T) {
	cases := []struct {
		name           string
		m              EndToEnd
		parent, change []float64
		want           string
		wins           int
	}{
		{"gain over ten pairs", higher, ramp(10, 100, 1), ramp(10, 120, 1), VerdictGain, 10},
		{"nine of ten pairs still a gain", higher, ramp(10, 100, 1),
			append(ramp(9, 120, 1), 50), VerdictGain, 9},
		{"eight of ten pairs is not", higher, ramp(10, 100, 1),
			append(ramp(8, 120, 1), 50, 50), VerdictWithin, 8},
		{"five pairs are never a gain", higher, ramp(5, 100, 1), ramp(5, 120, 1), VerdictWithin, 5},
		{"a median shift inside the parent IQR is not a gain", higher, ramp(10, 100, 2), ramp(10, 105, 2), VerdictWithin, 10},
		{"lower is better", lower, ramp(10, 1.0, 0.01), ramp(10, 0.6, 0.01), VerdictGain, 10},
		{"regression past the bound", higher, ramp(5, 100, 1), ramp(5, 70, 1), VerdictRegression, 0},
		{"lower-is-better regression", lower, ramp(5, 1.0, 0.01), ramp(5, 1.3, 0.01), VerdictRegression, 0},
		{"a wide parent is unresolved", lower, []float64{1, 1.5, 1.1, 1.2, 1.05}, []float64{1.1, 1.2, 1.0, 1.3, 1.15}, VerdictUnresolved, 2},
		{"unless every change run beats every parent run", lower,
			[]float64{1, 1.5, 1.1, 1.2, 1.05}, []float64{0.9, 0.95, 0.8, 0.85, 0.9}, VerdictWithin, 5},
		{"a small move inside the bound", higher, ramp(5, 100, 1), ramp(5, 95, 1), VerdictWithin, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := judgeCell(tc.m, "perfbench/x", tc.parent, tc.change)
			if c.Verdict != tc.want || c.Wins != tc.wins {
				t.Errorf("verdict %q with %d/%d wins, want %q with %d", c.Verdict, c.Wins, c.Pairs, tc.want, tc.wins)
			}
		})
	}
}

func TestQuantileInterpolates(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	for q, want := range map[float64]float64{0: 1, 0.25: 1.75, 0.5: 2.5, 0.75: 3.25, 1: 4} {
		if got := quantile(v, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile([]float64{7}, 0.5); got != 7 {
		t.Errorf("quantile of one value = %v, want 7", got)
	}
}

// committedVerdicts pins the judge's verdict on every workload and
// end-to-end metric of the perfbench pairs committed under results/.
// Five cells read unresolved where the report that came with the pair
// called nothing unresolved (construction sim-sweep and sim-read
// setup_s; memctrl sim-read, sim-write and sim-sweep setup_s): those
// reports compared the parent's interquartile range with the bound, the
// judge compares its whole range.
var committedVerdicts = map[string]string{
	"construction/sim-sweep/setup_s":          VerdictUnresolved,
	"construction/sim-sweep/sim_minstr_per_s": VerdictGain,
	"construction/sim-sweep/peak_rss_mb":      VerdictWithin,
	"construction/sim-read/setup_s":           VerdictUnresolved,
	"construction/sim-read/sim_minstr_per_s":  VerdictWithin,
	"construction/sim-read/peak_rss_mb":       VerdictWithin,
	"construction/sim-write/setup_s":          VerdictWithin,
	"construction/sim-write/sim_minstr_per_s": VerdictWithin,
	"construction/sim-write/peak_rss_mb":      VerdictWithin,
	"construction/serve-mix/setup_s":          VerdictWithin,
	"construction/serve-mix/sim_minstr_per_s": VerdictWithin,
	"construction/serve-mix/peak_rss_mb":      VerdictWithin,

	"memctrl/sim-read/setup_s":           VerdictUnresolved,
	"memctrl/sim-read/sim_minstr_per_s":  VerdictGain,
	"memctrl/sim-read/peak_rss_mb":       VerdictWithin,
	"memctrl/sim-write/setup_s":          VerdictUnresolved,
	"memctrl/sim-write/sim_minstr_per_s": VerdictWithin,
	"memctrl/sim-write/peak_rss_mb":      VerdictWithin,
	"memctrl/sim-sweep/setup_s":          VerdictUnresolved,
	"memctrl/sim-sweep/sim_minstr_per_s": VerdictGain,
	"memctrl/sim-sweep/peak_rss_mb":      VerdictWithin,
	"memctrl/serve-mix/setup_s":          VerdictWithin,
	"memctrl/serve-mix/sim_minstr_per_s": VerdictUnresolved,
	"memctrl/serve-mix/peak_rss_mb":      VerdictWithin,

	"setup/sim-sweep/setup_s":          VerdictGain,
	"setup/sim-sweep/sim_minstr_per_s": VerdictWithin,
	"setup/sim-sweep/peak_rss_mb":      VerdictWithin,
	"setup/sim-read/setup_s":           VerdictWithin,
	"setup/sim-read/sim_minstr_per_s":  VerdictWithin,
	"setup/sim-read/peak_rss_mb":       VerdictWithin,
	"setup/sim-write/setup_s":          VerdictWithin,
	"setup/sim-write/sim_minstr_per_s": VerdictWithin,
	"setup/sim-write/peak_rss_mb":      VerdictWithin,
	"setup/serve-mix/setup_s":          VerdictUnresolved,
	"setup/serve-mix/sim_minstr_per_s": VerdictWithin,
	"setup/serve-mix/peak_rss_mb":      VerdictWithin,

	"loop/sim-read/setup_s":           VerdictWithin,
	"loop/sim-read/sim_minstr_per_s":  VerdictGain,
	"loop/sim-read/peak_rss_mb":       VerdictWithin,
	"loop/sim-write/setup_s":          VerdictWithin,
	"loop/sim-write/sim_minstr_per_s": VerdictWithin,
	"loop/sim-write/peak_rss_mb":      VerdictWithin,
	"loop/sim-sweep/setup_s":          VerdictWithin,
	"loop/sim-sweep/sim_minstr_per_s": VerdictWithin,
	"loop/sim-sweep/peak_rss_mb":      VerdictWithin,
	"loop/serve-mix/setup_s":          VerdictUnresolved,
	"loop/serve-mix/sim_minstr_per_s": VerdictWithin,
	"loop/serve-mix/peak_rss_mb":      VerdictWithin,

	"recycle/sim-sweep/setup_s":          VerdictWithin,
	"recycle/sim-sweep/sim_minstr_per_s": VerdictGain,
	"recycle/sim-sweep/peak_rss_mb":      VerdictWithin,
	"recycle/sim-read/setup_s":           VerdictWithin,
	"recycle/sim-read/sim_minstr_per_s":  VerdictWithin,
	"recycle/sim-read/peak_rss_mb":       VerdictWithin,
	"recycle/sim-write/setup_s":          VerdictWithin,
	"recycle/sim-write/sim_minstr_per_s": VerdictWithin,
	"recycle/sim-write/peak_rss_mb":      VerdictWithin,
	"recycle/serve-mix/setup_s":          VerdictUnresolved,
	"recycle/serve-mix/sim_minstr_per_s": VerdictWithin,
	"recycle/serve-mix/peak_rss_mb":      VerdictWithin,

	"seed/serve-mix/setup_s":          VerdictUnresolved,
	"seed/serve-mix/sim_minstr_per_s": VerdictGain,
	"seed/serve-mix/peak_rss_mb":      VerdictWithin,
	"seed/sim-sweep/setup_s":          VerdictWithin,
	"seed/sim-sweep/sim_minstr_per_s": VerdictWithin,
	"seed/sim-sweep/peak_rss_mb":      VerdictWithin,
	"seed/sim-read/setup_s":           VerdictWithin,
	"seed/sim-read/sim_minstr_per_s":  VerdictWithin,
	"seed/sim-read/peak_rss_mb":       VerdictWithin,
	"seed/sim-write/setup_s":          VerdictWithin,
	"seed/sim-write/sim_minstr_per_s": VerdictWithin,
	"seed/sim-write/peak_rss_mb":      VerdictWithin,

	"mc/serve-mix/setup_s":          VerdictUnresolved,
	"mc/serve-mix/sim_minstr_per_s": VerdictGain,
	"mc/serve-mix/peak_rss_mb":      VerdictWithin,
	"mc/sim-read/setup_s":           VerdictWithin,
	"mc/sim-read/sim_minstr_per_s":  VerdictWithin,
	"mc/sim-read/peak_rss_mb":       VerdictWithin,
	"mc/sim-write/setup_s":          VerdictWithin,
	"mc/sim-write/sim_minstr_per_s": VerdictWithin,
	"mc/sim-write/peak_rss_mb":      VerdictWithin,
	"mc/sim-sweep/setup_s":          VerdictWithin,
	"mc/sim-sweep/sim_minstr_per_s": VerdictWithin,
	"mc/sim-sweep/peak_rss_mb":      VerdictWithin,

	"shortjobs/sim-sweep/setup_s":          VerdictWithin,
	"shortjobs/sim-sweep/sim_minstr_per_s": VerdictGain,
	"shortjobs/sim-sweep/peak_rss_mb":      VerdictUnresolved,
	"shortjobs/sim-read/setup_s":           VerdictWithin,
	"shortjobs/sim-read/sim_minstr_per_s":  VerdictWithin,
	"shortjobs/sim-read/peak_rss_mb":       VerdictWithin,
	"shortjobs/sim-write/setup_s":          VerdictWithin,
	"shortjobs/sim-write/sim_minstr_per_s": VerdictWithin,
	"shortjobs/sim-write/peak_rss_mb":      VerdictWithin,
	"shortjobs/serve-mix/setup_s":          VerdictUnresolved,
	"shortjobs/serve-mix/sim_minstr_per_s": VerdictWithin,
	"shortjobs/serve-mix/peak_rss_mb":      VerdictWithin,

	"replay/sim-sweep/setup_s":          VerdictUnresolved,
	"replay/sim-sweep/sim_minstr_per_s": VerdictGain,
	"replay/sim-sweep/peak_rss_mb":      VerdictWithin,
	"replay/sim-read/setup_s":           VerdictWithin,
	"replay/sim-read/sim_minstr_per_s":  VerdictWithin,
	"replay/sim-read/peak_rss_mb":       VerdictWithin,
	"replay/sim-write/setup_s":          VerdictWithin,
	"replay/sim-write/sim_minstr_per_s": VerdictWithin,
	"replay/sim-write/peak_rss_mb":      VerdictWithin,
	"replay/serve-mix/setup_s":          VerdictUnresolved,
	"replay/serve-mix/sim_minstr_per_s": VerdictWithin,
	"replay/serve-mix/peak_rss_mb":      VerdictWithin,

	"longrows/sim-write/setup_s":          VerdictUnresolved,
	"longrows/sim-write/sim_minstr_per_s": VerdictGain,
	"longrows/sim-write/peak_rss_mb":      VerdictWithin,
	"longrows/sim-read/setup_s":           VerdictUnresolved,
	"longrows/sim-read/sim_minstr_per_s":  VerdictGain,
	"longrows/sim-read/peak_rss_mb":       VerdictWithin,
	"longrows/sim-sweep/setup_s":          VerdictWithin,
	"longrows/sim-sweep/sim_minstr_per_s": VerdictWithin,
	"longrows/sim-sweep/peak_rss_mb":      VerdictWithin,
	"longrows/serve-mix/setup_s":          VerdictWithin,
	"longrows/serve-mix/sim_minstr_per_s": VerdictWithin,
	"longrows/serve-mix/peak_rss_mb":      VerdictWithin,

	"bursts/sim-write/setup_s":          VerdictUnresolved,
	"bursts/sim-write/sim_minstr_per_s": VerdictWithin,
	"bursts/sim-write/peak_rss_mb":      VerdictWithin,
	"bursts/sim-read/setup_s":           VerdictUnresolved,
	"bursts/sim-read/sim_minstr_per_s":  VerdictWithin,
	"bursts/sim-read/peak_rss_mb":       VerdictWithin,
	"bursts/sim-sweep/setup_s":          VerdictWithin,
	"bursts/sim-sweep/sim_minstr_per_s": VerdictWithin,
	"bursts/sim-sweep/peak_rss_mb":      VerdictWithin,
	"bursts/serve-mix/setup_s":          VerdictUnresolved,
	"bursts/serve-mix/sim_minstr_per_s": VerdictWithin,
	"bursts/serve-mix/peak_rss_mb":      VerdictWithin,
}

// TestJudgeCommittedPairs re-judges every committed perfbench pair
// against the repository's BENCHMARK.json and pins each verdict.
func TestJudgeCommittedPairs(t *testing.T) {
	root := filepath.Join("..", "..")
	metrics, err := readEndToEnd(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tag := range []string{"construction", "memctrl", "setup", "loop", "recycle", "seed", "mc", "shortjobs", "replay", "longrows", "bursts"} {
		parent, err := readDoc(filepath.Join(root, "results", "BENCH_perfbench_"+tag+"_parent.json"))
		if err != nil {
			t.Fatal(err)
		}
		change, err := readDoc(filepath.Join(root, "results", "BENCH_perfbench_"+tag+"_change.json"))
		if err != nil {
			t.Fatal(err)
		}
		cells, onlyParent, onlyChange := Judge(metrics, parent, change)
		if len(onlyParent)+len(onlyChange) > 0 {
			t.Errorf("%s: unpaired workloads %v %v", tag, onlyParent, onlyChange)
		}
		for _, c := range cells {
			key := tag + "/" + strings.TrimPrefix(c.Benchmark, "perfbench/") + "/" + c.Metric
			seen[key] = true
			want, ok := committedVerdicts[key]
			if !ok {
				t.Errorf("%s: no pinned verdict (judged %q)", key, c.Verdict)
				continue
			}
			if c.Verdict != want {
				t.Errorf("%s: judged %q (medians %.4g -> %.4g, %d/%d wins), pinned %q",
					key, c.Verdict, c.ParentMedian, c.ChangeMedian, c.Wins, c.Pairs, want)
			}
		}
	}
	for key := range committedVerdicts {
		if !seen[key] {
			t.Errorf("%s: pinned but not judged", key)
		}
	}
}

// TestRunJudgeExitsOnRegression drives the command end to end: a
// regression prints its row and exits 1, a gain exits 0, and a malformed
// call is a usage error.
func TestRunJudgeExitsOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("BENCHMARK.json", `{"end_to_end":[{"name":"sim_minstr_per_s","better":"higher","bound":0.25}]}`)
	doc := func(name string, values ...float64) string {
		var runs []string
		for _, v := range values {
			runs = append(runs, `{"iterations":1,"metrics":{"sim_minstr_per_s":`+strconv.FormatFloat(v, 'g', -1, 64)+`}}`)
		}
		return write(name, `{"benchmarks":[{"name":"perfbench/sim-read","runs":[`+strings.Join(runs, ",")+`]}]}`)
	}
	parent := doc("parent.json", 100, 101, 102, 103, 104)
	worse := doc("worse.json", 60, 61, 62, 63, 64)
	better := doc("better.json", ramp(10, 200, 1)...)
	parent10 := doc("parent10.json", ramp(10, 100, 1)...)

	var out, errOut bytes.Buffer
	if code := runJudge([]string{spec, parent, worse}, &out, &errOut); code != 1 {
		t.Fatalf("regression: exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), VerdictRegression) || !strings.Contains(out.String(), "102") {
		t.Errorf("regression row missing or without its medians:\n%s", out.String())
	}
	out.Reset()
	if code := runJudge([]string{spec, parent10, better}, &out, &errOut); code != 0 {
		t.Fatalf("gain: exit %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), VerdictGain) || !strings.Contains(out.String(), "204.5") {
		t.Errorf("gain row missing or printed with fewer than four digits:\n%s", out.String())
	}
	if code := runJudge([]string{spec, parent}, &out, &errOut); code != 2 {
		t.Errorf("two arguments: exit %d, want 2", code)
	}
}
