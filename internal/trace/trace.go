// Package trace provides the workload side of the ReadDuo evaluation:
// memory-access records, binary trace files, and synthetic generators
// standing in for the paper's Pin-captured SPEC CPU2006 traces.
//
// Substitution note (see DESIGN.md): the original Pin traces are not
// distributable and Table X's exact numbers are not legible in the
// available text. Each Benchmark below carries read/write intensities
// (RPKI/WPKI) drawn from published SPEC2006 memory characterizations and a
// qualitative locality/age profile matching the paper's discussion (mcf
// memory-intensive with medium-age reuse, sphinx3 read-mostly over data
// written long before, lbm/libquantum streaming write-heavy, ...). These
// parameters drive exactly the properties ReadDuo is sensitive to: bank
// pressure, read/write mix, and how read ages straddle the 640 s tracking
// window.
package trace

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Record is one main-memory access (post-cache, as captured by the paper's
// Pintool at the memory controller).
type Record struct {
	// Core is the issuing CPU core.
	Core uint8
	// Write distinguishes a line write-back from a demand read.
	Write bool
	// Line is the 64-byte-aligned line address.
	Line uint64
	// Gap is the number of non-memory instructions the core executed
	// since its previous record.
	Gap uint32
}

// Benchmark describes one synthetic SPEC2006-like workload.
type Benchmark struct {
	// Name is the SPEC benchmark this profile imitates.
	Name string
	// RPKI and WPKI are memory reads/writes per kilo-instruction.
	RPKI, WPKI float64
	// WorkingSetLines is the per-core footprint in 64-byte lines.
	WorkingSetLines int
	// HotFraction of accesses go to a hot subset of the working set
	// (temporal locality); HotSetLines is that subset's absolute size,
	// calibrated so per-line reuse over a feasible simulation window
	// matches what the paper's multi-minute Pin traces accumulate.
	// Post-cache miss streams concentrate reuse in a set far smaller than
	// the working set, which is what makes last-write tracking (and
	// R-M-read conversion) pay off within 640 s.
	HotFraction float64
	HotSetLines int
	// StreamFraction of accesses walk sequentially (spatial streaming).
	StreamFraction float64
	// Age profile of data read before being written in-window: FreshFrac
	// was written within the last scrub interval, MidFrac within MidAge,
	// and the rest at OldAge scale (hours) — the population LWT treats as
	// untracked.
	FreshFrac, MidFrac float64
	MidAge, OldAge     time.Duration
	// BurstFactor and BurstPeriodRecs optionally modulate access intensity
	// over time (bursty/diurnal workloads, e.g. the corpus:bursty-diurnal
	// scenario): the per-core instruction gap is scaled by
	// 1 + BurstFactor*sin(2π·i/BurstPeriodRecs) over the record index i,
	// alternating dense bursts with quiet troughs. Zero BurstFactor (the
	// default, and every Table X profile) leaves the stream untouched.
	BurstFactor     float64
	BurstPeriodRecs int
}

// Validate checks profile consistency.
func (b Benchmark) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("trace: benchmark needs a name")
	}
	if b.RPKI <= 0 || b.WPKI < 0 {
		return fmt.Errorf("trace: %s: RPKI %v must be positive, WPKI %v nonnegative", b.Name, b.RPKI, b.WPKI)
	}
	if b.WorkingSetLines <= 0 {
		return fmt.Errorf("trace: %s: working set must be positive", b.Name)
	}
	if bad := func(f float64) bool { return f < 0 || f > 1 }; bad(b.HotFraction) ||
		bad(b.StreamFraction) || bad(b.FreshFrac) || bad(b.MidFrac) {
		return fmt.Errorf("trace: %s: fractions must lie in [0,1]", b.Name)
	}
	if b.HotSetLines < 1 || b.HotSetLines > b.WorkingSetLines {
		return fmt.Errorf("trace: %s: hot set %d outside [1, working set]", b.Name, b.HotSetLines)
	}
	if b.FreshFrac+b.MidFrac > 1 {
		return fmt.Errorf("trace: %s: age fractions exceed 1", b.Name)
	}
	if b.MidAge <= 0 || b.OldAge <= b.MidAge {
		return fmt.Errorf("trace: %s: need 0 < MidAge < OldAge", b.Name)
	}
	if b.BurstFactor < 0 || b.BurstFactor >= 1 {
		return fmt.Errorf("trace: %s: burst factor %v outside [0,1)", b.Name, b.BurstFactor)
	}
	if b.BurstFactor > 0 && b.BurstPeriodRecs < 2 {
		return fmt.Errorf("trace: %s: burst period %d needs at least 2 records", b.Name, b.BurstPeriodRecs)
	}
	return nil
}

// SampleInitialAge draws the virtual age (time since last write, before the
// simulation window opened) of a line the workload reads before ever
// writing. The scrub interval s anchors the "fresh" class. The simulator
// calls it on every first-touch read, so it takes the profile by pointer
// rather than copying it.
func (b *Benchmark) SampleInitialAge(s time.Duration, rng *rand.Rand) time.Duration {
	u := rng.Float64()
	switch {
	case u < b.FreshFrac:
		// Recently written: comfortably inside the tracking window (the
		// line was in active write use when the window opened).
		return time.Duration(rng.Float64() * float64(s) / 2)
	case u < b.FreshFrac+b.MidFrac:
		return time.Duration(rng.Float64() * float64(b.MidAge))
	default:
		span := float64(b.OldAge - b.MidAge)
		return b.MidAge + time.Duration(rng.Float64()*span)
	}
}

// Benchmarks returns the 14-workload suite standing in for Table X, sorted
// as the paper's figures list them.
func Benchmarks() []Benchmark {
	const (
		kilo = 1024
		meg  = 1024 * 1024
	)
	mk := func(name string, rpki, wpki float64, ws, hotSet int, hot, stream, fresh, mid float64, midAge, oldAge time.Duration) Benchmark {
		return Benchmark{
			Name: name, RPKI: rpki, WPKI: wpki, WorkingSetLines: ws,
			HotFraction: hot, HotSetLines: hotSet, StreamFraction: stream,
			FreshFrac: fresh, MidFrac: mid, MidAge: midAge, OldAge: oldAge,
		}
	}
	return []Benchmark{
		mk("astar", 1.4, 0.5, 1*meg, 512, 0.60, 0.05, 0.80, 0.15, 640*time.Second, 2*time.Hour),
		mk("bwaves", 3.5, 0.8, 4*meg, 512, 0.35, 0.55, 0.85, 0.10, 640*time.Second, time.Hour),
		mk("bzip2", 0.9, 0.35, 512*kilo, 256, 0.70, 0.20, 0.85, 0.10, 480*time.Second, time.Hour),
		mk("gcc", 0.8, 0.4, 768*kilo, 256, 0.65, 0.10, 0.80, 0.15, 640*time.Second, 2*time.Hour),
		mk("GemsFDTD", 4.8, 1.6, 6*meg, 512, 0.30, 0.50, 0.85, 0.10, 640*time.Second, time.Hour),
		mk("hmmer", 0.35, 0.15, 256*kilo, 128, 0.80, 0.10, 0.90, 0.05, 320*time.Second, time.Hour),
		mk("lbm", 6.0, 4.5, 6*meg, 512, 0.20, 0.70, 0.90, 0.08, 320*time.Second, time.Hour),
		mk("libquantum", 5.5, 1.7, 4*meg, 512, 0.15, 0.80, 0.90, 0.08, 320*time.Second, time.Hour),
		mk("mcf", 16.0, 4.5, 12*meg, 2048, 0.45, 0.10, 0.72, 0.23, 1280*time.Second, 2*time.Hour),
		mk("milc", 6.2, 1.9, 5*meg, 1024, 0.30, 0.40, 0.85, 0.10, 640*time.Second, time.Hour),
		mk("omnetpp", 4.2, 1.7, 2*meg, 1024, 0.55, 0.05, 0.65, 0.25, 960*time.Second, 2*time.Hour),
		mk("soplex", 5.5, 1.2, 3*meg, 1024, 0.50, 0.25, 0.70, 0.20, 960*time.Second, 2*time.Hour),
		mk("sphinx3", 2.6, 0.12, 2*meg, 256, 0.75, 0.05, 0.05, 0.15, 1280*time.Second, 4*time.Hour),
		mk("xalancbmk", 2.4, 0.8, 1*meg, 512, 0.60, 0.05, 0.80, 0.15, 640*time.Second, 2*time.Hour),
	}
}

// registry holds benchmark profiles registered beyond the built-in Table X
// suite: corpus scenarios (internal/corpus) and ingested-trace workloads.
// ByName consults it after the built-ins, so registered names resolve
// everywhere benchmarks are named — campaign restore, readduo-sim
// -benchmarks lists, and the serve spec grammar.
var (
	registryMu sync.RWMutex
	registry   = map[string]Benchmark{}
)

// Register adds a benchmark profile to the lookup table. Registering a name
// that collides with a built-in or an earlier registration with a different
// profile is an error; re-registering an identical profile is a no-op (so
// blank imports from several binaries compose).
func Register(b Benchmark) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if _, builtin := builtinByName(b.Name); builtin {
		return fmt.Errorf("trace: register %q: collides with a built-in benchmark", b.Name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if prev, ok := registry[b.Name]; ok {
		if prev != b {
			return fmt.Errorf("trace: register %q: already registered with a different profile", b.Name)
		}
		return nil
	}
	registry[b.Name] = b
	return nil
}

func builtinByName(name string) (Benchmark, bool) {
	for _, b := range Benchmarks() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// ByName finds a benchmark profile: the built-in suite first, then the
// registry of corpus scenarios and ingested workloads.
func ByName(name string) (Benchmark, bool) {
	if b, ok := builtinByName(name); ok {
		return b, true
	}
	registryMu.RLock()
	defer registryMu.RUnlock()
	b, ok := registry[name]
	return b, ok
}

// Names lists every resolvable benchmark name: the built-in suite in paper
// order, then registered names sorted.
func Names() []string {
	bs := Benchmarks()
	out := make([]string, 0, len(bs))
	for _, b := range bs {
		out = append(out, b.Name)
	}
	registryMu.RLock()
	reg := make([]string, 0, len(registry))
	for name := range registry {
		reg = append(reg, name)
	}
	registryMu.RUnlock()
	sort.Strings(reg)
	return append(out, reg...)
}
