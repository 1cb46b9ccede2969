// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator or the serving stack in-process, checks
// every output, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics and the layer ledger). The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Lines before it start with "#".
//
// Run it through perfbench/run.sh from the repository root, which builds
// it first:
//
//	bash perfbench/run.sh --workload sim-read --seed 1 --seconds 10 --trace 0
//
// Workloads: sim-read, sim-write, sim-sweep, serve-mix (README.md).
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	_ "readduo/internal/corpus" // registers the corpus:* profiles the workloads use
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	scratch  string
}

//go:embed digests.json
var digestsJSON []byte

func main() {
	var (
		opt     options
		seconds = flag.Int("seconds", 15, "seconds of measurement")
		traced  = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		scratch = flag.String("scratch", filepath.Join(".bench_build", "perfbench"), "directory for disk-cache tiers, removed at exit")
		pin     = flag.String("pin", "", "run every pinned replicate of the sim workloads, write their result digests to this file, and exit")
	)
	flag.StringVar(&opt.workload, "workload", "", "sim-read, sim-write, sim-sweep or serve-mix")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: job seeds, key sets and the arrival schedule derive from it")
	flag.Parse()
	// One P: on a shared two-vCPU host, two Ps made simulation throughput
	// and serve capacity swing by 10-50% between runs of the same seed,
	// one P far less; the spare vCPU absorbs the host's and the runtime's
	// other work. Campaigns (Parallel) and servers (Workers) keep their
	// defaults, which follow GOMAXPROCS; the load generator keeps nproc
	// clients.
	runtime.GOMAXPROCS(1)
	opt.seconds = time.Duration(*seconds) * time.Second
	opt.trace = *traced == 1
	if *pin != "" {
		if err := writeDigests(*pin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	opt.scratch = filepath.Join(*scratch, fmt.Sprintf("run-%d", os.Getpid()))
	rep, err := run(opt)
	if rmErr := os.RemoveAll(opt.scratch); err == nil && rmErr != nil {
		err = rmErr
	}
	if err == nil {
		err = rep.write(os.Stdout, opt.trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(opt options) (*report, error) {
	rep := newReport(opt.workload)
	if err := os.MkdirAll(opt.scratch, 0o755); err != nil {
		return nil, err
	}
	if _, ok := simWorkloads[opt.workload]; !ok && opt.workload != "serve-mix" {
		return nil, fmt.Errorf("unknown workload %q (want sim-read, sim-write, sim-sweep or serve-mix)", opt.workload)
	}
	var err error
	if opt.workload == "serve-mix" {
		err = runServeMix(rep, opt)
	} else {
		err = runSim(rep, opt.workload, simWorkloads[opt.workload], opt)
	}
	if err != nil {
		return nil, err
	}
	rep.e2e("peak_rss_mb", peakRSSMB())
	return rep, nil
}

// pinnedDigests returns a sim workload's result digests per replicate
// seed.
func pinnedDigests(workload string) (map[string][]string, error) {
	var all map[string]map[string][]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("pinned digests: %w", err)
	}
	digests := all[workload]
	if len(digests) != pinnedSeeds {
		return nil, fmt.Errorf("pinned digests: %d replicate seeds for %q, want %d", len(digests), workload, pinnedSeeds)
	}
	return digests, nil
}

// writeDigests pins the result digest of every job of every pinned
// replicate seed of every sim workload.
func writeDigests(path string) error {
	names := make([]string, 0, len(simWorkloads))
	for name := range simWorkloads {
		names = append(names, name)
	}
	sort.Strings(names)
	all := map[string]map[string][]string{}
	for _, name := range names {
		d, err := pinDigests(simWorkloads[name])
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		all[name] = d
	}
	buf, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
