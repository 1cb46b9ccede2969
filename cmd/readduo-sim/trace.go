package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"readduo/internal/corpus"
	"readduo/internal/ingest"
	"readduo/internal/trace"
)

// ingestedName is the workload name stamped in an ingested trace's
// header. Replay never reads it: -trace takes its age profile from
// -benchmarks.
const ingestedName = corpus.Prefix + "ingested"

// traceCmd runs `readduo-sim trace`: it lists the workload suite (Table
// X), writes a synthetic trace file, or converts an external ChampSim or
// Pin trace to the native format, so the simulator's inputs can be
// inspected, archived, or replayed with -trace.
func traceCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("trace", stderr)
	list := fs.Bool("list", false, "print the workload suite (Table X)")
	bench := fs.String("benchmark", "", "workload to generate")
	records := fs.Uint64("records", 1_000_000, "total records to emit")
	cores := fs.Int("cores", 4, "core count")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "", "output file (default <benchmark>.trace, or ingested.trace with -ingest)")
	gz := fs.Bool("gzip", false, "gzip-compress the output trace")
	ingestPath := fs.String("ingest", "", "convert this external trace (ChampSim/Pin) to the native format instead of generating")
	format := fs.String("format", "auto", "ingest input format: auto, native, champsim, pin")
	gap := fs.Uint64("gap", 0, "ingest: fixed instruction gap per record (pin format only)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	switch {
	case *ingestPath != "":
		return ingestTrace(stdout, *ingestPath, *format, *cores, *gap, *out, *gz)
	case *list:
		return printSuite(stdout)
	}
	return generateTrace(stdout, *bench, *records, *cores, *seed, *out, *gz)
}

func generateTrace(stdout io.Writer, bench string, records uint64, cores int, seed int64, out string, gz bool) error {
	if bench == "" {
		return fmt.Errorf("need -benchmark, -ingest, or -list")
	}
	b, ok := trace.ByName(bench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", bench)
	}
	gen, err := trace.NewGenerator(b, cores, seed)
	if err != nil {
		return err
	}
	out = defaultOut(out, bench, gz)
	var n uint64
	err = writeTrace(out, gz, func(dst io.Writer) error {
		w, err := trace.NewWriter(dst, b.Name, cores)
		if err != nil {
			return err
		}
		for i := uint64(0); i < records; i++ {
			rec, err := gen.Next(int(i % uint64(cores)))
			if err != nil {
				return err
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		n = w.Count()
		return w.Flush()
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d records for %s to %s\n", n, b.Name, out)
	return nil
}

func ingestTrace(stdout io.Writer, path, format string, cores int, gap uint64, out string, gz bool) error {
	fm, err := ingest.ParseFormat(format)
	if err != nil {
		return err
	}
	out = defaultOut(out, "ingested", gz)
	src, err := os.Open(path)
	if err != nil {
		return err
	}
	defer src.Close()
	var n uint64
	err = writeTrace(out, gz, func(dst io.Writer) error {
		var err error
		n, err = ingest.Convert(dst, src, fm, ingestedName, ingest.Options{Cores: cores, Gap: uint32(gap)})
		if err != nil {
			return fmt.Errorf("ingest %s: %w", path, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ingested %d records from %s to %s (name %s, %d cores)\n", n, path, out, ingestedName, cores)
	return nil
}

// defaultOut names the output file when -out is not given.
func defaultOut(out, stem string, gz bool) string {
	if out != "" {
		return out
	}
	if gz {
		return stem + ".trace.gz"
	}
	return stem + ".trace"
}

// writeTrace creates out, gzip-framed when gz, and lets fill write the
// trace into it. On any error it removes out again: a cut-off trace keeps
// a valid header, so -trace would replay it as if it were whole.
func writeTrace(out string, gz bool, fill func(io.Writer) error) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	var dst io.Writer = f
	var zw *gzip.Writer
	if gz {
		zw = gzip.NewWriter(f)
		dst = zw
	}
	err = fill(dst)
	if err == nil && zw != nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// Never remove a device or pipe that -out names (say /dev/stdout).
		if fi, statErr := os.Stat(out); statErr == nil && fi.Mode().IsRegular() {
			err = errors.Join(err, os.Remove(out))
		}
	}
	return err
}

func printSuite(w io.Writer) error {
	fmt.Fprintln(w, "Workload suite (synthetic stand-in for Table X)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tRPKI\tWPKI\tworking set\thot set\thot%\tstream%\tfresh%\tmid%\told%")
	for _, b := range trace.Benchmarks() {
		old := 1 - b.FreshFrac - b.MidFrac
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%d\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
			b.Name, b.RPKI, b.WPKI, b.WorkingSetLines, b.HotSetLines,
			100*b.HotFraction, 100*b.StreamFraction,
			100*b.FreshFrac, 100*b.MidFrac, 100*old)
	}
	return tw.Flush()
}
