// Package corpus names the workload scenarios that go beyond the Table X
// SPEC stand-ins: stress patterns the paper never ran (write-heavy, scan,
// zipfian, bursty-diurnal) plus corpus:ingested, the age profile for
// replaying an external trace.
//
// Every scenario registers a trace.Benchmark under the "corpus:" prefix,
// so the whole corpus is addressable wherever benchmarks are named — one
// campaign matrix through any readduo-sim view (-benchmarks corpus:zipfian,
// corpus:scan) and the serve spec grammar
// (GET /v1/compare?benchmark=corpus:zipfian&schemes=Ideal,LWT-4).
//
// Importing the package (blank import for binaries) performs the
// registration.
package corpus

import (
	"fmt"
	"strings"
	"time"

	"readduo/internal/trace"
)

// Prefix namespaces corpus scenarios in the benchmark registry.
const Prefix = "corpus:"

// Scenario is one named workload of the corpus.
type Scenario struct {
	// Name is the short scenario name ("zipfian"); the registered
	// benchmark name is Prefix + Name.
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// Benchmark is the registered profile driving the generator (for
	// corpus:ingested, the age profile accompanying a replayed trace).
	Benchmark trace.Benchmark
}

const (
	kilo = 1024
	meg  = 1024 * 1024
)

// builtin returns the static scenario set. Profiles are chosen to stress
// exactly the axes ReadDuo is sensitive to: read/write mix, reuse skew,
// streaming scans over long-cold data, and time-varying bank pressure.
func builtin() []Scenario {
	mk := func(name, desc string, b trace.Benchmark) Scenario {
		b.Name = Prefix + name
		return Scenario{Name: name, Desc: desc, Benchmark: b}
	}
	return []Scenario{
		mk("write-heavy", "store-dominated stream; write queues and cell wear dominate", trace.Benchmark{
			RPKI: 2.0, WPKI: 6.0,
			WorkingSetLines: 1 * meg, HotFraction: 0.40, HotSetLines: 512,
			StreamFraction: 0.30,
			FreshFrac:      0.95, MidFrac: 0.03,
			MidAge: 320 * time.Second, OldAge: time.Hour,
		}),
		mk("scan", "sequential read-mostly sweep over long-cold data; LWT's untracked worst case", trace.Benchmark{
			RPKI: 6.0, WPKI: 0.3,
			WorkingSetLines: 4 * meg, HotFraction: 0.05, HotSetLines: 256,
			StreamFraction: 0.90,
			FreshFrac:      0.10, MidFrac: 0.20,
			MidAge: 1280 * time.Second, OldAge: 4 * time.Hour,
		}),
		mk("zipfian", "heavily skewed reuse on a tiny hot set; conversion's best case", trace.Benchmark{
			RPKI: 8.0, WPKI: 2.0,
			WorkingSetLines: 2 * meg, HotFraction: 0.85, HotSetLines: 128,
			StreamFraction: 0.02,
			FreshFrac:      0.60, MidFrac: 0.25,
			MidAge: 640 * time.Second, OldAge: 2 * time.Hour,
		}),
		mk("bursty-diurnal", "sinusoidally modulated intensity; alternating burst and trough bank pressure", trace.Benchmark{
			RPKI: 4.0, WPKI: 1.5,
			WorkingSetLines: 1 * meg, HotFraction: 0.50, HotSetLines: 512,
			StreamFraction: 0.20,
			FreshFrac:      0.70, MidFrac: 0.20,
			MidAge: 640 * time.Second, OldAge: 2 * time.Hour,
			BurstFactor: 0.80, BurstPeriodRecs: 4096,
		}),
		mk("ingested", "neutral age profile accompanying a replayed external capture", ingestedProfile()),
	}
}

// ingestedProfile is the neutral profile paired with replayed captures:
// the capture supplies the access stream, this supplies the pre-window
// age distribution of first-touch reads.
func ingestedProfile() trace.Benchmark {
	return trace.Benchmark{
		RPKI: 4.0, WPKI: 1.0,
		WorkingSetLines: 1 * meg, HotFraction: 0.50, HotSetLines: 512,
		StreamFraction: 0.20,
		FreshFrac:      0.50, MidFrac: 0.30,
		MidAge: 640 * time.Second, OldAge: 2 * time.Hour,
	}
}

func init() {
	for _, sc := range builtin() {
		if err := trace.Register(sc.Benchmark); err != nil {
			panic(fmt.Sprintf("corpus: %v", err))
		}
	}
}

// Scenarios lists the static corpus in definition order.
func Scenarios() []Scenario { return builtin() }

// ByName resolves a scenario by short name ("zipfian") or registered
// name ("corpus:zipfian").
func ByName(name string) (Scenario, bool) {
	short := strings.TrimPrefix(name, Prefix)
	for _, sc := range builtin() {
		if sc.Name == short {
			return sc, true
		}
	}
	return Scenario{}, false
}
