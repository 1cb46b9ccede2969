package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metricDef names one reported metric. Tag says how it is measured:
// e2e (end to end, untraced), bulk-timed (a layer's public functions
// timed in bulk), replay (the cpu/memctrl replay), or count (counters
// the layers already keep, or exact tallies of the run).
type metricDef struct {
	Name, Unit, Better, Tag string
}

// endToEnd lists the untraced metrics, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "e2e"},
	{"sim_minstr_per_s", "Minstr/s", "higher", "e2e"},
	{"peak_rss_mb", "MB", "lower", "e2e"},
}

// perLayer lists the traced-run metrics, in BENCHMARK.json order. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"trace.records", "count", "lower", "count"},
	{"trace.gen_ns", "ns", "lower", "bulk-timed"},
	{"sim.construct_us", "us", "lower", "bulk-timed"},
	{"sim.host_ns_per_event", "ns", "lower", "bulk-timed"},
	{"sim.events_per_kinstr", "count", "lower", "count"},
	{"sim.read.r", "count", "higher", "count"},
	{"sim.read.m", "count", "lower", "count"},
	{"sim.read.rm", "count", "lower", "count"},
	{"sim.read.hybrid_retry", "count", "lower", "count"},
	{"sim.read.conversion", "count", "lower", "count"},
	{"sim.read.untracked", "count", "lower", "count"},
	{"sim.write.full", "count", "lower", "count"},
	{"sim.write.diff", "count", "higher", "count"},
	{"sim.write.blocked", "count", "lower", "count"},
	{"sim.write.blocked_ratio", "ratio", "lower", "count"},
	{"sim.scrub.scan", "count", "lower", "count"},
	{"sim.scrub.rewrite", "count", "lower", "count"},
	{"sim.probcache.hit", "count", "higher", "count"},
	{"sim.probcache.miss", "count", "lower", "count"},
	{"memctrl.call_ns", "ns", "lower", "replay"},
	{"cpu.call_ns", "ns", "lower", "replay"},
	{"memctrl.reads", "count", "lower", "count"},
	{"memctrl.writes", "count", "lower", "count"},
	{"memctrl.cancellations", "count", "lower", "count"},
	{"memctrl.write_queue_stalls", "count", "lower", "count"},
	{"memctrl.scrub_reads", "count", "lower", "count"},
	{"memctrl.scrub_writes", "count", "lower", "count"},
	{"memctrl.bank_busy_frac", "ratio", "lower", "count"},
	{"memctrl.read_latency_ns", "ns", "lower", "count"},
	{"reliability.cold_build_ms", "ms", "lower", "bulk-timed"},
	{"reliability.check_us", "us", "lower", "bulk-timed"},
	{"reliability.ler_cell_us", "us", "lower", "bulk-timed"},
	{"lifetime.mc_ms", "ms", "lower", "bulk-timed"},
	{"campaign.idle_frac", "ratio", "lower", "count"},
	{"campaign.jobs_failed", "count", "lower", "count"},
	{"server.frontend_us", "us", "lower", "bulk-timed"},
	{"server.cache.hit_ratio", "ratio", "higher", "count"},
	{"server.flight.shared", "count", "higher", "count"},
	{"server.compute.rejected", "count", "lower", "count"},
	{"cache.lru.get_us", "us", "lower", "bulk-timed"},
	{"cache.disk.get_us", "us", "lower", "bulk-timed"},
	{"cache.disk.put_us", "us", "lower", "bulk-timed"},
	{"cache.tier.lru.hits", "count", "higher", "count"},
	{"cache.tier.disk.hits", "count", "higher", "count"},
	{"cache.tier.lru.evictions", "count", "lower", "count"},
	{"backend.worker_us", "us", "lower", "bulk-timed"},
	{"backend.hop_us", "us", "lower", "bulk-timed"},
	{"backend.fallbacks", "count", "lower", "count"},
	{"loadgen.late_p99_ms", "ms", "lower", "bulk-timed"},
	{"traced_overhead_frac", "ratio", "lower", "bulk-timed"},
	// serve-mix's end-to-end serve figures, from its untraced phases:
	// printed here, without a bound, because they do not hold still
	// enough to gate (README.md).
	{"p50_ms", "ms", "lower", "e2e"},
	{"p99_ms", "ms", "lower", "e2e"},
	{"tier0_p50_ms", "ms", "lower", "e2e"},
	{"disk_p50_ms", "ms", "lower", "e2e"},
	{"miss_p50_ms", "ms", "lower", "e2e"},
	{"remote_p50_ms", "ms", "lower", "e2e"},
	{"sat_rps", "req/s", "higher", "e2e"},
}

type ledgerRow struct {
	layer   string
	seconds float64
	tag     string
}

// report collects one run's outcome: operation tallies, metrics, the
// layer ledger and free-form notes.
type report struct {
	workload          string
	attempted, failed int
	problems          []string
	e2eVals           map[string]float64
	layerVals         map[string]float64
	rows              []ledgerRow
	ledgerTotal       float64
	ledgerUnit        string
	overhead          float64
	notes             []string
}

func newReport(workload string) *report {
	return &report{workload: workload, e2eVals: map[string]float64{}, layerVals: map[string]float64{}, ledgerUnit: "worker-s"}
}

func (r *report) e2e(name string, v float64)   { r.e2eVals[name] = v }
func (r *report) layer(name string, v float64) { r.layerVals[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) ledger(layer string, seconds float64, tag string) {
	r.rows = append(r.rows, ledgerRow{layer, seconds, tag})
}

// fail counts n failed operations with a reason.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) addSimPhase(p *simPhase) {
	r.attempted += p.jobs
	r.failed += p.failed + p.mismatch
	for _, s := range p.problems {
		if len(r.problems) < 20 {
			r.problems = append(r.problems, s)
		}
	}
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// write prints the human-readable part of the report, each line
// starting with "#", then the result object as the last line.
func (r *report) write(w io.Writer, traced bool) error {
	fmt.Fprintf(w, "# perfbench %s: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q\n",
		r.workload, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	defs, vals := endToEnd, r.e2eVals
	if traced {
		defs, vals = perLayer, r.layerVals
		vals["traced_overhead_frac"] = r.overhead
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !traced {
				r.fail(1, "end-to-end metric %s was not measured", d.Name)
			}
			v = 0
		}
		fmt.Fprintf(w, "# %-28s %14.6g %-9s %s\n", d.Name, v, d.Unit, d.Tag)
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	if traced {
		r.writeLedger(w)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# FAILED: %s\n", p)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0 && r.attempted > 0,
		"attempted": max(1, r.attempted),
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// writeLedger prints each layer's share of the traced run's total and
// the part no measured layer explains.
func (r *report) writeLedger(w io.Writer) {
	if r.ledgerTotal <= 0 {
		return
	}
	fmt.Fprintf(w, "# ledger %s: total %.4f %s\n", r.workload, r.ledgerTotal, r.ledgerUnit)
	rows := append([]ledgerRow(nil), r.rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].seconds > rows[j].seconds })
	explained := 0.0
	for _, row := range rows {
		explained += row.seconds
		fmt.Fprintf(w, "#   %-24s %10.4f %6.1f%%  %s\n", row.layer, row.seconds, 100*row.seconds/r.ledgerTotal, row.tag)
	}
	rest := r.ledgerTotal - explained
	fmt.Fprintf(w, "#   %-24s %10.4f %6.1f%%\n", "unexplained", rest, 100*rest/r.ledgerTotal)
	fmt.Fprintf(w, "#   traced_overhead_frac %.4f\n", r.overhead)
}
