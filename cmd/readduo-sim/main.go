// Command readduo-sim regenerates the paper's evaluation. With no
// subcommand it runs every scheme the paper compares on the 14-workload
// suite and reports normalized execution time (Figure 9), dynamic energy
// (Figure 10), and relative lifetime (Figure 15). Subcommands:
//
//	sweep   sensitivity to k, s and R-M-read conversion (Figures 12-14),
//	        or a custom -schemes list normalized to its first entry
//	edap    Table VII, per-line cell footprints, and Figure 11's EDAP,
//	        normalized to the first -schemes entry
//	tables  the analytical Tables I-V (no simulation)
//	trace   the workload suite (Table X), synthetic trace files, and
//	        conversion of external ChampSim/Pin traces (no simulation)
//
// Every simulating invocation runs one campaign (internal/campaign): jobs
// execute on a bounded worker pool, every completed job is journaled when
// -journal is given, and an interrupted campaign (Ctrl-C drains
// gracefully) resumes with -resume, skipping finished jobs. Results are
// bit-identical for any -parallel value. A subcommand only chooses the
// default scheme columns and which views -report renders from the matrix.
//
// Usage:
//
//	readduo-sim [sweep|edap] [-benchmarks=mcf,sphinx3] [-schemes=<list>]
//	            [-budget=2000000] [-seed=1] [-report=<view>]
//	            [-parallel=N] [-banks=N] [-journal=run.jsonl] [-resume] [-json]
//	readduo-sim tables [-report=config|ler|wpolicy|all] [-metric=R|M|both]
//	readduo-sim trace -list
//	readduo-sim trace -benchmark=mcf [-records=1000000] [-cores=4] [-seed=1] [-out=mcf.trace] [-gzip]
//	readduo-sim trace -ingest=trace.champsim.gz [-format=auto] [-gap=0] [-cores=4] [-out=ingested.trace] [-gzip]
//
// A trace file from `trace` replays through any simulating invocation with
// -trace=<file>.
//
// -schemes accepts an arbitrary design-point list drawn from the scheme
// registry's spec grammar, e.g. "Ideal,LWT-8,Select-4:2" or
// "ideal,lwt:k=16,convert=false" — design points the paper never ran.
package main

import (
	"context"
	"encoding/json"
	"errors"
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
	"readduo/internal/sim"
	"readduo/internal/trace"
)

// options collects the configuration shared by every simulating
// subcommand.
type options struct {
	command     string // "", "sweep" or "edap"
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
	dashAddr    string
	out         io.Writer // reports
	progress    io.Writer // nil silences progress lines
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := cli(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "readduo-sim:", err)
		os.Exit(1)
	}
}

// cli dispatches on the optional subcommand in args[0].
func cli(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	command := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		command, args = args[0], args[1:]
	}
	switch command {
	case "tables":
		fs := newFlagSet(command, stderr)
		what := fs.String("report", "all", "config, ler, wpolicy, or all")
		metric := fs.String("metric", "both", "metric for the LER tables: R, M, or both")
		if err := parseFlags(fs, args); err != nil {
			return err
		}
		p, err := tablesPlan(*what, *metric)
		if err != nil {
			return err
		}
		return p.render(stdout, nil)
	case "trace":
		return traceCmd(args, stdout, stderr)
	case "", "sweep", "edap":
		opts, err := parseOptions(command, args, stdout, stderr)
		if err != nil {
			return err
		}
		return run(ctx, opts)
	}
	return fmt.Errorf("unknown subcommand %q (want sweep, edap, tables, or trace)", command)
}

func newFlagSet(command string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(strings.TrimSpace("readduo-sim "+command), flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: readduo-sim [sweep|edap|tables|trace] [flags]\nflags of %s:\n", fs.Name())
		fs.PrintDefaults()
	}
	return fs
}

// parseFlags parses args, rejecting leftovers such as a subcommand placed
// after the flags, which would otherwise be silently ignored.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (a subcommand must come first)", fs.Arg(0))
	}
	return nil
}

// parseOptions registers the shared flags; only the -schemes and -report
// help texts differ between subcommands.
func parseOptions(command string, args []string, stdout, stderr io.Writer) (options, error) {
	opts := options{command: command, out: stdout, progress: stderr}
	schemesUsage := "prior, readduo, all (default), or a comma-separated scheme list (e.g. \"Ideal,LWT-8,Select-4:2\", \"lwt:k=16\")"
	reportUsage := "time, energy, lifetime, or all"
	switch command {
	case "sweep":
		schemesUsage = "scheme list for the custom view, normalized to the first entry (implies -report=custom)"
		reportUsage = "k, s, conversion, custom, or all"
	case "edap":
		schemesUsage = "scheme list; the first entry is the EDAP baseline (default: the Figure 11 set)"
		reportUsage = "area or all"
	}
	fs := newFlagSet(command, stderr)
	fs.StringVar(&opts.benchList, "benchmarks", "", "comma-separated workload names (default: full suite)")
	fs.StringVar(&opts.schemeSet, "schemes", "", schemesUsage)
	fs.Uint64Var(&opts.budget, "budget", 2_000_000, "instructions per core")
	fs.Int64Var(&opts.seed, "seed", 1, "campaign seed (per-job seeds are derived from it)")
	fs.StringVar(&opts.seedList, "seeds", "", "comma-separated replicate seeds (e.g. 1,2,3,4,5); overrides -seed")
	fs.StringVar(&opts.what, "report", "all", reportUsage)
	fs.StringVar(&opts.traceFile, "trace", "", "replay this trace file (written by readduo-sim trace) instead of generating accesses; requires -benchmarks naming the matching profile")
	fs.BoolVar(&opts.jsonOut, "json", false, "emit the full result matrix as JSON instead of tables")
	fs.BoolVar(&opts.emitBench, "emit-bench", false,
		"emit results as go-test benchmark lines (one run per replicate seed) for benchjson governance")
	fs.IntVar(&opts.parallel, "parallel", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&opts.banks, "banks", 0, "override the PCM bank count (0 = config default)")
	fs.StringVar(&opts.journalPath, "journal", "", "append completed jobs to this JSONL journal")
	fs.BoolVar(&opts.resume, "resume", false, "skip jobs already completed in -journal")
	fs.BoolVar(&opts.telemetry, "telemetry", false, "collect hot-path counters; print a snapshot table and write telemetry.json at exit")
	fs.DurationVar(&opts.telemIntvl, "telemetry-interval", 0, "stream registry snapshots to a time-series store every interval (0 = off)")
	fs.StringVar(&opts.telemDir, "telemetry-dir", "", "directory persisting streamed series (empty = in-memory; implies -telemetry-interval 1s)")
	fs.StringVar(&opts.dashAddr, "dash-addr", "", "serve the live dashboard, /metrics, /api/series and net/http/pprof on this address (e.g. localhost:6060; implies -telemetry-interval 1s)")
	return opts, parseFlags(fs, args)
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

// buildSpec assembles the campaign spec over the given scheme columns,
// including the per-job trace replay hook when -trace is given. The
// returned cleanup (never nil) must run once the campaign has drained; it
// closes any trace handles the jobs opened.
func buildSpec(opts options, schemes []sim.Scheme) (campaign.Spec, func(), error) {
	noop := func() {}
	benches, err := selectBenches(opts.benchList)
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
		// A capture that vanished or changed since the check above must
		// fail the job: a nil Source would silently simulate the
		// synthetic generator instead.
		f, err := os.Open(opts.traceFile)
		if err != nil {
			cfg.Source = failedSource{err}
			return
		}
		rp, err := trace.NewReplayer(f)
		if err != nil {
			f.Close()
			cfg.Source = failedSource{fmt.Errorf("trace %s: %w", opts.traceFile, err)}
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

// failedSource is the access stream of a job that could not open or parse
// its capture: its first Next fails the job with err.
type failedSource struct{ err error }

func (s failedSource) Next(int) (trace.Record, error) { return trace.Record{}, s.err }

func run(ctx context.Context, opts options) error {
	if opts.resume && opts.journalPath == "" {
		return fmt.Errorf("-resume needs -journal")
	}
	p, err := planFor(opts)
	if err != nil {
		return err
	}
	if len(p.schemes) == 0 { // edap -report=area simulates nothing
		return p.render(opts.out, nil)
	}
	spec, cleanup, err := buildSpec(opts, p.schemes)
	if err != nil {
		return err
	}
	defer cleanup()
	outcome, matrices, err := runCampaign(ctx, spec, opts)
	if err != nil {
		return err
	}
	if opts.emitBench {
		return emitBench(opts.out, spec, matrices)
	}
	if opts.jsonOut {
		return writeJSON(opts.out, spec, matrices, outcome, opts)
	}
	// Views report the first replicate; use -json or -emit-bench for the
	// full multi-seed surface.
	return p.render(opts.out, matrices[0].Matrix)
}

// runCampaign runs spec under the observability session and journal the
// options ask for. An interrupted or partly failed campaign writes its
// per-job summary to opts.progress before returning the error, so
// finished jobs are reported rather than silently discarded.
func runCampaign(ctx context.Context, spec campaign.Spec, opts options) (*campaign.Outcome, []campaign.SeedMatrix, error) {
	session, err := obs.Start(obs.Options{
		Name:              "readduo-sim",
		Telemetry:         opts.telemetry,
		TelemetryInterval: opts.telemIntvl,
		SeriesDir:         opts.telemDir,
		DashAddr:          opts.dashAddr,
		Logf: func(format string, args ...any) {
			if opts.progress != nil {
				fmt.Fprintf(opts.progress, format+"\n", args...)
			}
		},
	})
	if err != nil {
		return nil, nil, err
	}
	defer session.Close()
	session.StartCollector()

	campaignOpts := campaign.Options{
		Parallel:  opts.parallel,
		Telemetry: session.Registry,
	}
	if opts.progress != nil {
		campaignOpts.Progress = func(format string, args ...any) {
			fmt.Fprintf(opts.progress, format+"\n", args...)
		}
	}
	var prior *campaign.TelemetrySummary
	if opts.journalPath != "" {
		header := spec.Header(time.Now().Unix())
		var journal *campaign.Journal
		if opts.resume {
			j, done, p, err := campaign.Open(opts.journalPath, header)
			if err != nil {
				return nil, nil, err
			}
			journal = j
			campaignOpts.Completed = done
			prior = p
		} else {
			j, err := campaign.Create(opts.journalPath, header)
			if err != nil {
				return nil, nil, err
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
		return nil, nil, err
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
			return nil, nil, fmt.Errorf("interrupted with %d/%d jobs done%s",
				outcome.Done, len(outcome.Records), hint)
		}
		return nil, nil, fmt.Errorf("%d/%d jobs done, %d failed; matrix incomplete",
			outcome.Done, len(outcome.Records), outcome.Failed)
	}
	matrices, err := outcome.Matrices(spec)
	if err != nil {
		return nil, nil, err
	}
	return outcome, matrices, nil
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
