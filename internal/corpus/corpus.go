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
	"time"

	"readduo/internal/trace"
)

// Prefix namespaces corpus scenarios in the benchmark registry.
const Prefix = "corpus:"

const (
	kilo = 1024
	meg  = 1024 * 1024
)

// builtin returns the static scenario set, each profile named with the
// corpus prefix. Profiles are chosen to stress exactly the axes ReadDuo is
// sensitive to: read/write mix, reuse skew, streaming scans over long-cold
// data, and time-varying bank pressure.
func builtin() []trace.Benchmark {
	mk := func(name string, b trace.Benchmark) trace.Benchmark {
		b.Name = Prefix + name
		return b
	}
	return []trace.Benchmark{
		// Store-dominated stream; write queues and cell wear dominate.
		mk("write-heavy", trace.Benchmark{
			RPKI: 2.0, WPKI: 6.0,
			WorkingSetLines: 1 * meg, HotFraction: 0.40, HotSetLines: 512,
			StreamFraction: 0.30,
			FreshFrac:      0.95, MidFrac: 0.03,
			MidAge: 320 * time.Second, OldAge: time.Hour,
		}),
		// Sequential read-mostly sweep over long-cold data; LWT's
		// untracked worst case.
		mk("scan", trace.Benchmark{
			RPKI: 6.0, WPKI: 0.3,
			WorkingSetLines: 4 * meg, HotFraction: 0.05, HotSetLines: 256,
			StreamFraction: 0.90,
			FreshFrac:      0.10, MidFrac: 0.20,
			MidAge: 1280 * time.Second, OldAge: 4 * time.Hour,
		}),
		// Heavily skewed reuse on a tiny hot set; conversion's best case.
		mk("zipfian", trace.Benchmark{
			RPKI: 8.0, WPKI: 2.0,
			WorkingSetLines: 2 * meg, HotFraction: 0.85, HotSetLines: 128,
			StreamFraction: 0.02,
			FreshFrac:      0.60, MidFrac: 0.25,
			MidAge: 640 * time.Second, OldAge: 2 * time.Hour,
		}),
		// Sinusoidally modulated intensity; alternating burst and trough
		// bank pressure.
		mk("bursty-diurnal", trace.Benchmark{
			RPKI: 4.0, WPKI: 1.5,
			WorkingSetLines: 1 * meg, HotFraction: 0.50, HotSetLines: 512,
			StreamFraction: 0.20,
			FreshFrac:      0.70, MidFrac: 0.20,
			MidAge: 640 * time.Second, OldAge: 2 * time.Hour,
			BurstFactor: 0.80, BurstPeriodRecs: 4096,
		}),
		// Neutral age profile accompanying a replayed external capture.
		mk("ingested", ingestedProfile()),
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
	for _, b := range builtin() {
		if err := trace.Register(b); err != nil {
			panic(fmt.Sprintf("corpus: %v", err))
		}
	}
}
