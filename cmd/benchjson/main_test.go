package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: readduo
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBCHEncode-8    	   10000	    112345 ns/op	     512 B/op	       2 allocs/op
BenchmarkBCHEncode-8    	   10000	    113456 ns/op	     512 B/op	       2 allocs/op
BenchmarkTableIII_LER_R-8 	       5	  30123456 ns/op	         1.85e-14 LER(E8,S8)
some test chatter
PASS
ok  	readduo	12.3s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" || doc.Pkg != "readduo" {
		t.Errorf("header = %+v", doc)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want 2", len(doc.Benchmarks))
	}
	enc := doc.Benchmarks[0]
	if enc.Name != "BenchmarkBCHEncode" {
		t.Errorf("name = %q (GOMAXPROCS suffix must be stripped)", enc.Name)
	}
	if len(enc.Runs) != 2 {
		t.Fatalf("runs = %d, want 2 (count preserved, not aggregated)", len(enc.Runs))
	}
	if enc.Runs[0].Iterations != 10000 || enc.Runs[0].Metrics["ns/op"] != 112345 {
		t.Errorf("run 0 = %+v", enc.Runs[0])
	}
	if enc.Runs[0].Metrics["allocs/op"] != 2 {
		t.Errorf("benchmem metrics missing: %+v", enc.Runs[0].Metrics)
	}
	ler := doc.Benchmarks[1]
	if ler.Runs[0].Metrics["LER(E8,S8)"] != 1.85e-14 {
		t.Errorf("custom metric = %+v", ler.Runs[0].Metrics)
	}
}

func TestParseEmpty(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\n")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestParseBenchLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-8",
		"BenchmarkX-8 notanint 5 ns/op",
		"BenchmarkX-8 100 bogus ns/op",
	} {
		if _, _, ok := parseBenchLine(line); ok {
			t.Errorf("accepted %q", line)
		}
	}
}

// perfbenchRun is one captured `perfbench/run.sh --workload sim-sweep
// --seed 1 --seconds 10 --trace 0` stdout.
const perfbenchRun = `# perfbench sim-sweep: nproc=2 GOMAXPROCS=1 go1.24.0 linux/amd64 cpu="Intel(R) Xeon(R) Processor"
# sim-sweep: 183 batches, 76860 jobs, 10.018 s in campaign.Run (767.2 Minstr/s overall), pool idle 8.1%; calibrated batch Minstr/s quartiles 1341.3 1488.5 1587.7
# as measured: setup 1.9121 s, 757.64 Minstr/s (medians); calibration median 1.909 x the reference over 19 runs
# setup_s                            0.715596 s         e2e
# sim_minstr_per_s                    1488.54 Minstr/s  e2e
# peak_rss_mb                         21.5859 MB        e2e
{"attempted":76860,"correct":true,"failed":0,"metrics":{"peak_rss_mb":{"unit":"MB","value":21.5859375},"setup_s":{"unit":"s","value":0.7155961227540532},"sim_minstr_per_s":{"unit":"Minstr/s","value":1488.5407158905705}}}
`

func TestParsePerfbench(t *testing.T) {
	doc, err := Parse(strings.NewReader(perfbenchRun + perfbenchRun))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" || doc.Pkg != perfbenchPkg || doc.CPU != "Intel(R) Xeon(R) Processor" {
		t.Errorf("header = %+v", doc)
	}
	if len(doc.Benchmarks) != 1 || doc.Benchmarks[0].Name != "perfbench/sim-sweep" {
		t.Fatalf("benchmarks = %+v, want one perfbench/sim-sweep", doc.Benchmarks)
	}
	runs := doc.Benchmarks[0].Runs
	if len(runs) != 2 {
		t.Fatalf("runs = %d, want one per result line", len(runs))
	}
	want := map[string]float64{"setup_s": 0.7155961227540532, "sim_minstr_per_s": 1488.5407158905705, "peak_rss_mb": 21.5859375}
	if runs[0].Iterations != 76860 || len(runs[0].Metrics) != len(want) {
		t.Fatalf("run = %+v", runs[0])
	}
	for name, v := range want {
		if runs[0].Metrics[name] != v {
			t.Errorf("%s = %v, want %v", name, runs[0].Metrics[name], v)
		}
	}
}

func TestParsePerfbenchRefusesFailedRuns(t *testing.T) {
	for name, bad := range map[string]string{
		"incorrect": strings.Replace(perfbenchRun, `"correct":true`, `"correct":false`, 1),
		"failed":    strings.Replace(perfbenchRun, `"failed":0`, `"failed":3`, 1),
		"garbled":   strings.Replace(perfbenchRun, `"metrics":{`, `"metrics":`, 1),
	} {
		if _, err := Parse(strings.NewReader(perfbenchRun + bad)); err == nil {
			t.Errorf("%s result line accepted", name)
		}
	}
}

// A JSON line outside a perfbench run is chatter, as in go test output.
func TestParseIgnoresJSONWithoutPerfbenchHeader(t *testing.T) {
	doc, err := Parse(strings.NewReader(`{"correct":false}` + "\n" + sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want the 2 go test benchmarks", len(doc.Benchmarks))
	}
}

// Two perfbench documents of the same workloads share a cohort, so a
// governed comparison accepts them once each holds enough runs.
func TestPerfbenchDocumentsPassGovernance(t *testing.T) {
	docs := make([]*Document, 2)
	for i := range docs {
		doc, err := Parse(strings.NewReader(strings.Repeat(perfbenchRun, 5)))
		if err != nil {
			t.Fatal(err)
		}
		stampGovernance(doc, "")
		docs[i] = doc
	}
	if v := CheckGovernance(docs[0], docs[1], 5); len(v) != 0 {
		t.Errorf("governance violations: %v", v)
	}
}
