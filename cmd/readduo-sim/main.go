// Command readduo-sim runs the full-system evaluation: every scheme the
// paper compares on the 14-workload suite, reporting normalized execution
// time (Figure 9), dynamic energy (Figure 10), system energy, and relative
// lifetime (Figure 15).
//
// The matrix runs on the campaign engine (internal/campaign): jobs execute
// on a bounded worker pool, every completed job is journaled when -journal
// is given, and an interrupted campaign (Ctrl-C drains gracefully) resumes
// with -resume, skipping finished jobs. Results are bit-identical for any
// -parallel value.
//
// Usage:
//
//	readduo-sim [-benchmarks=mcf,sphinx3] [-schemes=prior|readduo|all|<list>]
//	            [-budget=2000000] [-seed=1] [-report=time|energy|lifetime|all]
//	            [-parallel=N] [-banks=N] [-journal=run.jsonl] [-resume] [-json]
//
// -schemes also accepts an arbitrary design-point list drawn from the
// scheme registry's spec grammar, e.g. "Ideal,LWT-8,Select-4:2" or
// "ideal,lwt:k=16,convert=false" — design points the paper never ran.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"readduo/internal/campaign"
	_ "readduo/internal/corpus" // register corpus:* workload scenarios
	"readduo/internal/obs"
	"readduo/internal/report"
	"readduo/internal/sim"
	"readduo/internal/trace"
)

// options collects the command-line configuration.
type options struct {
	benchList   string
	schemeSet   string
	budget      uint64
	seed        int64
	seedList    string
	what        string
	traceFile   string
	jsonOut     bool
	emitBench   bool
	parallel    int
	banks       int
	journalPath string
	resume      bool
	telemetry   bool
	telemIntvl  time.Duration
	telemDir    string
	debugAddr   string
	traceSpans  string
	progress    io.Writer // nil silences progress lines
}

func main() {
	var opts options
	flag.StringVar(&opts.benchList, "benchmarks", "", "comma-separated workload names (default: full suite)")
	flag.StringVar(&opts.schemeSet, "schemes", "all",
		"prior, readduo, all, or a comma-separated scheme list (e.g. \"Ideal,LWT-8,Select-4:2\", \"lwt:k=16\")")
	flag.Uint64Var(&opts.budget, "budget", 2_000_000, "instructions per core")
	flag.Int64Var(&opts.seed, "seed", 1, "campaign seed (per-job seeds are derived from it)")
	flag.StringVar(&opts.seedList, "seeds", "", "comma-separated replicate seeds (e.g. 1,2,3,4,5); overrides -seed")
	flag.StringVar(&opts.what, "report", "all", "time, energy, lifetime, or all")
	flag.StringVar(&opts.traceFile, "trace", "", "replay this capture (from tracegen) instead of generating accesses; requires -benchmarks naming the matching profile")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit the full result matrix as JSON instead of tables")
	flag.BoolVar(&opts.emitBench, "emit-bench", false,
		"emit results as go-test benchmark lines (one run per replicate seed) for benchjson governance")
	flag.IntVar(&opts.parallel, "parallel", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.IntVar(&opts.banks, "banks", 0, "override the PCM bank count (0 = config default)")
	flag.StringVar(&opts.journalPath, "journal", "", "append completed jobs to this JSONL journal")
	flag.BoolVar(&opts.resume, "resume", false, "skip jobs already completed in -journal")
	flag.BoolVar(&opts.telemetry, "telemetry", false, "collect hot-path counters; print a snapshot table and write telemetry.json at exit")
	flag.DurationVar(&opts.telemIntvl, "telemetry-interval", 0, "stream registry snapshots to a time-series store every interval (0 = off)")
	flag.StringVar(&opts.telemDir, "telemetry-dir", "", "directory persisting streamed series (empty = in-memory; implies -telemetry-interval 1s)")
	flag.StringVar(&opts.debugAddr, "debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	flag.StringVar(&opts.traceSpans, "trace-spans", "", "stream per-job span events to this JSONL file")
	flag.Parse()
	opts.progress = os.Stderr

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts); err != nil {
		fmt.Fprintln(os.Stderr, "readduo-sim:", err)
		os.Exit(1)
	}
}

func selectBenches(list string) ([]trace.Benchmark, error) {
	if list == "" {
		return trace.Benchmarks(), nil
	}
	var out []trace.Benchmark
	for _, name := range strings.Split(list, ",") {
		b, ok := trace.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		out = append(out, b)
	}
	return out, nil
}

// selectSchemes resolves -schemes: a named registry set or an arbitrary
// comma-separated design-point list ("Ideal,LWT-8,Select-4:2").
func selectSchemes(set string) ([]sim.Scheme, error) {
	switch set {
	case "", "all":
		return sim.AllSchemes(), nil
	case "prior":
		return sim.PriorSchemes(), nil
	case "readduo":
		return sim.ReadDuoSchemes(), nil
	default:
		return sim.ParseList(set)
	}
}

// parseSeeds resolves the replicate seed list: -seeds wins, else -seed.
func parseSeeds(list string, single int64) ([]int64, error) {
	if list == "" {
		return []int64{single}, nil
	}
	var out []int64
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		s, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seeds entry %q", part)
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-seeds is empty")
	}
	return out, nil
}

// buildSpec assembles the campaign spec, including the per-job trace
// replay hook when -trace is given. The returned cleanup (never nil)
// must run once the campaign has drained; it closes any trace handles
// the jobs opened.
func buildSpec(opts options) (campaign.Spec, func(), error) {
	noop := func() {}
	benches, err := selectBenches(opts.benchList)
	if err != nil {
		return campaign.Spec{}, noop, err
	}
	schemes, err := selectSchemes(opts.schemeSet)
	if err != nil {
		return campaign.Spec{}, noop, err
	}
	seeds, err := parseSeeds(opts.seedList, opts.seed)
	if err != nil {
		return campaign.Spec{}, noop, err
	}
	spec := campaign.Spec{
		Benchmarks: benches,
		Schemes:    schemes,
		Seeds:      seeds,
		Budget:     opts.budget,
	}
	if opts.banks > 0 {
		banks := opts.banks
		spec.Configure = func(_ campaign.Job, cfg *sim.Config) {
			cfg.Mem.Banks = banks
		}
	}
	if opts.traceFile == "" {
		return spec, noop, nil
	}
	if len(benches) != 1 {
		return campaign.Spec{}, noop, fmt.Errorf("-trace needs exactly one -benchmarks entry for the age profile")
	}
	// Validate the header once, then stream: each job opens its own
	// handle so concurrent jobs never fight over a file offset, and the
	// capture is read through trace.NewReader's buffered stream rather
	// than loaded into memory — replay cost stays flat no matter how
	// large the capture is. Rewind-at-EOF seeks the file, so looping
	// replay works on a plain handle (gzip captures are re-sniffed on
	// each loop).
	probe, err := os.Open(opts.traceFile)
	if err != nil {
		return campaign.Spec{}, noop, err
	}
	rp, err := trace.NewReplayer(probe)
	probe.Close()
	if err != nil {
		return campaign.Spec{}, noop, fmt.Errorf("trace %s: %w", opts.traceFile, err)
	}
	// The capture's core count wins over the config default: a 2-core
	// trace must not be asked for core 3's stream.
	cores := rp.Cores()

	var mu sync.Mutex
	var open []*os.File
	prior := spec.Configure
	spec.Configure = func(job campaign.Job, cfg *sim.Config) {
		if prior != nil {
			prior(job, cfg)
		}
		f, err := os.Open(opts.traceFile)
		if err != nil {
			return // validated above; disappearing mid-run fails the job loudly later
		}
		rp, err := trace.NewReplayer(f)
		if err != nil {
			f.Close()
			return
		}
		mu.Lock()
		open = append(open, f)
		mu.Unlock()
		cfg.Source = rp
		cfg.CPU.Cores = cores
	}
	cleanup := func() {
		mu.Lock()
		defer mu.Unlock()
		for _, f := range open {
			f.Close()
		}
		open = nil
	}
	return spec, cleanup, nil
}

func run(ctx context.Context, opts options) error {
	spec, cleanup, err := buildSpec(opts)
	if err != nil {
		return err
	}
	defer cleanup()

	session, err := obs.Start(obs.Options{
		Name:              "readduo-sim",
		Telemetry:         opts.telemetry,
		DebugAddr:         opts.debugAddr,
		TracePath:         opts.traceSpans,
		TelemetryInterval: opts.telemIntvl,
		SeriesDir:         opts.telemDir,
		Logf: func(format string, args ...any) {
			if opts.progress != nil {
				fmt.Fprintf(opts.progress, format+"\n", args...)
			}
		},
	})
	if err != nil {
		return err
	}
	defer session.Close()
	session.StartCollector()

	campaignOpts := campaign.Options{
		Parallel:  opts.parallel,
		Telemetry: session.Registry,
		Tracer:    session.Tracer,
	}
	if opts.progress != nil {
		campaignOpts.Progress = func(format string, args ...any) {
			fmt.Fprintf(opts.progress, format+"\n", args...)
		}
	}
	if opts.resume && opts.journalPath == "" {
		return fmt.Errorf("-resume needs -journal")
	}
	var prior *campaign.TelemetrySummary
	if opts.journalPath != "" {
		header := spec.Header(time.Now().Unix())
		var journal *campaign.Journal
		if opts.resume {
			j, done, p, err := campaign.Open(opts.journalPath, header)
			if err != nil {
				return err
			}
			journal = j
			campaignOpts.Completed = done
			prior = p
		} else {
			j, err := campaign.Create(opts.journalPath, header)
			if err != nil {
				return err
			}
			journal = j
		}
		defer journal.Close()
		campaignOpts.Journal = journal
	}

	outcome, err := campaign.Run(ctx, spec, campaignOpts)
	if reportErr := reportTelemetry(session, prior, opts); reportErr != nil && err == nil {
		err = reportErr
	}
	if err != nil {
		return err
	}
	if outcome.Interrupted || outcome.Failed > 0 {
		if opts.progress != nil {
			outcome.WriteSummary(opts.progress)
		}
		if outcome.Interrupted {
			hint := ""
			if opts.journalPath != "" {
				hint = fmt.Sprintf("; resume with -journal=%s -resume", opts.journalPath)
			}
			return fmt.Errorf("interrupted with %d/%d jobs done%s",
				outcome.Done, len(outcome.Records), hint)
		}
		return fmt.Errorf("%d job(s) failed; matrix incomplete", outcome.Failed)
	}
	matrices, err := outcome.Matrices(spec)
	if err != nil {
		return err
	}

	if opts.emitBench {
		return emitBench(os.Stdout, spec, matrices)
	}
	if opts.jsonOut {
		return writeJSON(os.Stdout, spec, matrices, outcome, opts)
	}
	// Tables report the first replicate; use -json or -emit-bench for the
	// full multi-seed surface.
	return writeTables(os.Stdout, matrices[0].Matrix, opts.what)
}

// benchNameSanitizer rewrites characters benchjson's parser would
// mangle: '-' (stripped as a GOMAXPROCS suffix) and spaces.
var benchNameSanitizer = strings.NewReplacer("-", "_", " ", "_")

// emitBench renders the campaign results as `go test -bench` output so
// benchjson can capture them as a governed baseline. Each replicate
// seed contributes one run per benchmark line, so a 5-seed campaign
// yields 5 samples per claim, and the pkg line carries the campaign
// fingerprint so benchjson's cohort hash binds the baseline to the
// exact matrix (budget, seeds, benchmarks, schemes) that produced it.
// The simulated metrics are deterministic, so baselines compare exactly
// across machines.
func emitBench(w io.Writer, spec campaign.Spec, matrices []campaign.SeedMatrix) error {
	fmt.Fprintf(w, "goos: %s\n", runtime.GOOS)
	fmt.Fprintf(w, "goarch: %s\n", runtime.GOARCH)
	fmt.Fprintf(w, "pkg: readduo/campaign/%s\n", spec.Fingerprint())
	for _, sm := range matrices {
		m := sm.Matrix
		for i := range m.Benchmarks {
			for j := range m.Schemes {
				r := m.Results[i][j]
				name := fmt.Sprintf("BenchmarkCampaign/%s/%s",
					benchNameSanitizer.Replace(r.Benchmark),
					benchNameSanitizer.Replace(r.Scheme))
				if _, err := fmt.Fprintf(w, "%s 1 %d sim_ns %.1f dyn_pJ %d cell_writes\n",
					name, r.ExecTime.Nanoseconds(), r.Energy.Total(), r.CellWrites); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// reportTelemetry prints the run's snapshot (and, on a resumed
// campaign, the cumulative counters merged across every journaled run)
// once the campaign drains. It runs even when the campaign was
// interrupted, so partial runs still report what they measured.
func reportTelemetry(session *obs.Session, prior *campaign.TelemetrySummary, opts options) error {
	if !opts.telemetry {
		return nil
	}
	w := opts.progress
	if w == nil {
		w = io.Discard
	}
	if err := session.Report(w); err != nil {
		return err
	}
	if prior != nil && session.Registry != nil {
		cum := campaign.SummaryFromSnapshot(session.Registry.Snapshot(), 0, 0)
		cum.Merge(prior)
		fmt.Fprintf(w, "cumulative counters across resumed runs (%d prior jobs):\n", prior.Jobs)
		for _, k := range sortedCounterKeys(cum.Counters) {
			fmt.Fprintf(w, "  %s\t%d\n", k, cum.Counters[k])
		}
	}
	return nil
}

func sortedCounterKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeTables(w io.Writer, m *report.Matrix, what string) error {
	all := what == "all"
	printed := false
	if all || what == "time" {
		printed = true
		rows, means, err := m.Normalized("Ideal", report.ExecTime)
		if err != nil {
			return err
		}
		if err := report.WriteNormalizedTable(w,
			"Figure 9: execution time normalized to Ideal", m, rows, means); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || what == "energy" {
		printed = true
		rows, means, err := m.Normalized("Ideal", report.DynamicEnergy)
		if err != nil {
			return err
		}
		if err := report.WriteNormalizedTable(w,
			"Figure 10: dynamic energy normalized to Ideal", m, rows, means); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || what == "lifetime" {
		printed = true
		life, err := m.RelativeLifetime("Ideal")
		if err != nil {
			return err
		}
		if err := report.WriteKeyValueTable(w,
			"Figure 15: lifetime relative to Ideal", m.Schemes, life); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if !printed {
		return fmt.Errorf("unknown report %q", what)
	}
	return nil
}

// jsonCampaign is the self-describing metadata block of -json output.
type jsonCampaign struct {
	Seed     int64   `json:"seed"`
	Budget   uint64  `json:"budget"`
	Parallel int     `json:"parallel"`
	Journal  string  `json:"journal,omitempty"`
	Resumed  int     `json:"resumed_jobs,omitempty"`
	WallMS   float64 `json:"wall_ms"`
}

// jsonRun is the machine-readable form of one (benchmark, scheme) result.
type jsonRun struct {
	Benchmark      string  `json:"benchmark"`
	Scheme         string  `json:"scheme"`
	Seed           int64   `json:"seed"`
	WallMS         float64 `json:"wall_ms"`
	Worker         int     `json:"worker"`
	ExecTimeNS     int64   `json:"exec_time_ns"`
	Instructions   uint64  `json:"instructions"`
	RReads         uint64  `json:"r_reads"`
	MReads         uint64  `json:"m_reads"`
	RMReads        uint64  `json:"rm_reads"`
	Untracked      uint64  `json:"untracked_reads"`
	Conversions    uint64  `json:"conversions"`
	ConverterT     int     `json:"converter_t"`
	FullWrites     uint64  `json:"full_writes"`
	DiffWrites     uint64  `json:"diff_writes"`
	ScrubReads     uint64  `json:"scrub_reads"`
	ScrubWrites    uint64  `json:"scrub_writes"`
	DynamicPJ      float64 `json:"dynamic_energy_pj"`
	SystemPJ       float64 `json:"system_energy_pj"`
	CellWrites     uint64  `json:"cell_writes"`
	AreaCells      float64 `json:"area_cells_per_line"`
	AvgReadLatency string  `json:"avg_read_latency"`
}

// jsonOutput is the top-level -json document.
type jsonOutput struct {
	Campaign jsonCampaign `json:"campaign"`
	Runs     []jsonRun    `json:"runs"`
}

func writeJSON(w io.Writer, spec campaign.Spec, matrices []campaign.SeedMatrix, outcome *campaign.Outcome, opts options) error {
	out := jsonOutput{
		Campaign: jsonCampaign{
			Seed:     opts.seed,
			Budget:   opts.budget,
			Parallel: outcome.Parallel,
			Journal:  opts.journalPath,
			Resumed:  outcome.Resumed,
			WallMS:   float64(outcome.Elapsed) / float64(time.Millisecond),
		},
		Runs: make([]jsonRun, 0, len(outcome.Records)),
	}
	for si, sm := range matrices {
		m := sm.Matrix
		base := si * len(m.Benchmarks) * len(m.Schemes)
		for i := range m.Benchmarks {
			for j := range m.Schemes {
				r := m.Results[i][j]
				rec := outcome.Records[base+i*len(m.Schemes)+j]
				out.Runs = append(out.Runs, jsonRun{
					Benchmark:      r.Benchmark,
					Scheme:         r.Scheme,
					Seed:           rec.Seed,
					WallMS:         rec.WallMS,
					Worker:         rec.Worker,
					ExecTimeNS:     r.ExecTime.Nanoseconds(),
					Instructions:   r.Instructions,
					RReads:         r.RReads,
					MReads:         r.MReads,
					RMReads:        r.RMReads,
					Untracked:      r.UntrackedReads,
					Conversions:    r.Conversions,
					ConverterT:     r.ConverterT,
					FullWrites:     r.FullWrites,
					DiffWrites:     r.DiffWrites,
					ScrubReads:     r.Mem.ScrubReads,
					ScrubWrites:    r.Mem.ScrubWrites,
					DynamicPJ:      r.Energy.Total(),
					SystemPJ:       r.SystemEnergyPJ,
					CellWrites:     r.CellWrites,
					AreaCells:      r.AreaCellsPerLine,
					AvgReadLatency: r.Mem.AvgReadLatency().String(),
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
