// Command sweeps reproduces the sensitivity studies of the evaluation:
// the sub-interval count k (Figure 12, LWT-2 vs LWT-4), the selective
// rewrite spacing s (Figure 13, Select-4:1 vs Select-4:2), and the R-M-read
// conversion on/off comparison (Figure 14).
//
// Each sweep runs as a campaign on the shared worker pool; when a sweep is
// interrupted or a point fails, the completed points are reported instead
// of being discarded.
//
// Usage:
//
//	sweeps [-sweep=k|s|conversion|temp|all|custom] [-budget=2000000] [-seed=1]
//	       [-benchmarks=mcf,sphinx3,...] [-parallel=N]
//	       [-schemes=Ideal,LWT-8,Select-4:2]
//	       [-base=scrubbing] [-temps=250,300,350]
//
// -sweep=custom compares an arbitrary scheme list from the registry
// grammar, normalized to the first entry. Passing -schemes implies
// -sweep=custom.
//
// -sweep=temp runs the ambient-temperature study: the -base scheme
// evaluated at each -temps point (Kelvin, 4..400), normalized to the
// first point — the cryo/hot-aisle sensitivity axis of the drift model.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"readduo/internal/campaign"
	_ "readduo/internal/corpus" // register corpus:* workload scenarios
	"readduo/internal/obs"
	"readduo/internal/report"
	"readduo/internal/sim"
	"readduo/internal/trace"
)

func main() {
	sweep := flag.String("sweep", "all", "k, s, conversion, temp, all, or custom")
	budget := flag.Uint64("budget", 2_000_000, "instructions per core")
	seed := flag.Int64("seed", 1, "campaign seed (per-job seeds are derived from it)")
	benchList := flag.String("benchmarks", "", "comma-separated workloads (default: full suite)")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
	schemeList := flag.String("schemes", "",
		"scheme list for the custom sweep, normalized to the first entry (implies -sweep=custom)")
	baseScheme := flag.String("base", "scrubbing",
		"scheme the temperature sweep decorates with temp= points")
	tempList := flag.String("temps", "250,300,350",
		"comma-separated ambient temperatures in Kelvin for -sweep=temp")
	telemetry := flag.Bool("telemetry", false, "collect hot-path counters; print a snapshot table and write telemetry.json at exit")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	traceSpans := flag.String("trace-spans", "", "stream per-job span events to this JSONL file")
	flag.Parse()

	if *schemeList != "" && *sweep == "all" {
		*sweep = "custom"
	}

	session, err := obs.Start(obs.Options{
		Name:      "sweeps",
		Telemetry: *telemetry,
		DebugAddr: *debugAddr,
		TracePath: *traceSpans,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweeps:", err)
		os.Exit(1)
	}
	defer session.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runErr := run(ctx, *sweep, *budget, *seed, *benchList, *parallel, *schemeList, *baseScheme, *tempList, session)
	if err := session.Report(os.Stderr); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "sweeps:", runErr)
		session.Close()
		os.Exit(1)
	}
}

// campaignMatrix runs one sweep's matrix on the campaign engine. On
// interruption or point failure it writes the completed points to partialTo
// before returning the error, so finished work is never silently discarded.
func campaignMatrix(ctx context.Context, spec campaign.Spec, parallel int, partialTo io.Writer, session *obs.Session) (*report.Matrix, error) {
	outcome, err := campaign.Run(ctx, spec, campaign.Options{
		Parallel:  parallel,
		Telemetry: session.Registry,
		Tracer:    session.Tracer,
	})
	if err != nil {
		return nil, err
	}
	if outcome.Interrupted || outcome.Failed > 0 {
		fmt.Fprintf(partialTo, "sweep incomplete: %d/%d points done (%d failed); completed points:\n",
			outcome.Done, len(outcome.Records), outcome.Failed)
		outcome.WriteSummary(partialTo)
		if outcome.Interrupted {
			return nil, fmt.Errorf("interrupted with %d/%d points done", outcome.Done, len(outcome.Records))
		}
		return nil, fmt.Errorf("%d sweep point(s) failed", outcome.Failed)
	}
	matrices, err := outcome.Matrices(spec)
	if err != nil {
		return nil, err
	}
	return matrices[0].Matrix, nil
}

func run(ctx context.Context, sweep string, budget uint64, seed int64, benchList string, parallel int, schemeList, baseScheme, tempList string, session *obs.Session) error {
	benches := trace.Benchmarks()
	if benchList != "" {
		benches = benches[:0]
		for _, name := range strings.Split(benchList, ",") {
			b, ok := trace.ByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown benchmark %q", name)
			}
			benches = append(benches, b)
		}
	}
	spec := func(schemes ...sim.Scheme) campaign.Spec {
		return campaign.Spec{
			Benchmarks: benches,
			Schemes:    schemes,
			Seeds:      []int64{seed},
			Budget:     budget,
		}
	}
	all := sweep == "all"
	ran := false

	if all || sweep == "k" {
		ran = true
		m, err := campaignMatrix(ctx, spec(sim.Ideal(), sim.LWT(2, true), sim.LWT(4, true)), parallel, os.Stdout, session)
		if err != nil {
			return err
		}
		rows, means, err := m.Normalized("Ideal", report.ExecTime)
		if err != nil {
			return err
		}
		if err := report.WriteNormalizedTable(os.Stdout,
			"Figure 12: sub-interval count k (execution time vs Ideal)", m, rows, means); err != nil {
			return err
		}
		fmt.Printf("\nk=4 improvement over k=2 (mean): %.2f%%\n\n", 100*(means[1]-means[2])/means[1])
	}

	if all || sweep == "s" {
		ran = true
		m, err := campaignMatrix(ctx, spec(sim.Ideal(), sim.Select(4, 1), sim.Select(4, 2)), parallel, os.Stdout, session)
		if err != nil {
			return err
		}
		rows, means, err := m.Normalized("Ideal", report.DynamicEnergy)
		if err != nil {
			return err
		}
		if err := report.WriteNormalizedTable(os.Stdout,
			"Figure 13: rewrite spacing s (dynamic energy vs Ideal)", m, rows, means); err != nil {
			return err
		}
		fmt.Printf("\ns=2 energy saving over s=1 (mean): %.2f%%\n\n", 100*(means[1]-means[2])/means[1])
	}

	if all || sweep == "conversion" {
		ran = true
		m, err := campaignMatrix(ctx, spec(sim.Ideal(), sim.LWT(4, false), sim.LWT(4, true)), parallel, os.Stdout, session)
		if err != nil {
			return err
		}
		rows, means, err := m.Normalized("Ideal", report.ExecTime)
		if err != nil {
			return err
		}
		if err := report.WriteNormalizedTable(os.Stdout,
			"Figure 14: R-M-read conversion off vs on (execution time vs Ideal)", m, rows, means); err != nil {
			return err
		}
		fmt.Printf("\nconversion improvement (mean): %.2f%%\n\n", 100*(means[1]-means[2])/means[1])
	}

	if sweep == "temp" {
		ran = true
		schemes, err := temperatureSchemes(baseScheme, tempList)
		if err != nil {
			return err
		}
		m, err := campaignMatrix(ctx, spec(schemes...), parallel, os.Stdout, session)
		if err != nil {
			return err
		}
		baseline := schemes[0].Name()
		rows, means, err := m.Normalized(baseline, report.ExecTime)
		if err != nil {
			return err
		}
		if err := report.WriteNormalizedTable(os.Stdout,
			fmt.Sprintf("Temperature sweep: execution time vs %s", baseline), m, rows, means); err != nil {
			return err
		}
		fmt.Println()
	}

	if sweep == "custom" {
		ran = true
		if schemeList == "" {
			return fmt.Errorf("-sweep=custom needs -schemes (e.g. -schemes=Ideal,LWT-8,Select-4:2)")
		}
		schemes, err := sim.ParseList(schemeList)
		if err != nil {
			return err
		}
		if len(schemes) < 2 {
			return fmt.Errorf("custom sweep needs at least two schemes, got %d", len(schemes))
		}
		m, err := campaignMatrix(ctx, spec(schemes...), parallel, os.Stdout, session)
		if err != nil {
			return err
		}
		baseline := schemes[0].Name()
		rows, means, err := m.Normalized(baseline, report.ExecTime)
		if err != nil {
			return err
		}
		if err := report.WriteNormalizedTable(os.Stdout,
			fmt.Sprintf("Custom sweep: execution time vs %s", baseline), m, rows, means); err != nil {
			return err
		}
		fmt.Println()
	}

	if !ran {
		return fmt.Errorf("unknown sweep %q", sweep)
	}
	return nil
}

// temperatureSchemes decorates the base scheme with each temperature
// point. The 300 K point normalizes to the plain base scheme, so a sweep
// crossing the default shares its cache/journal entries with every other
// campaign.
func temperatureSchemes(baseScheme, tempList string) ([]sim.Scheme, error) {
	base, err := sim.Parse(baseScheme)
	if err != nil {
		return nil, err
	}
	var schemes []sim.Scheme
	for _, part := range strings.Split(tempList, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		tempK, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("temperature %q is not a number", part)
		}
		s, err := base.AtEnv(sim.Environment{TempK: tempK})
		if err != nil {
			return nil, err
		}
		schemes = append(schemes, s)
	}
	if len(schemes) < 2 {
		return nil, fmt.Errorf("temperature sweep needs at least two -temps points, got %d", len(schemes))
	}
	return schemes, nil
}
