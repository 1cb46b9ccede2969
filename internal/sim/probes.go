package sim

import (
	"readduo/internal/telemetry"
)

// engineProbes are the hot-path telemetry hooks of one Engine. All
// fields are nil when Config.Telemetry is nil, and every telemetry
// metric is nil-safe, so the disabled path costs one pointer check per
// probe site — the benchmarks in the repository root hold that under
// the 2% overhead budget.
//
// Probe placement: demand-read sense modes are counted at the engine's
// Read dispatch; sense-mode internals (Hybrid's drift-triggered
// retries, tracked designs' untracked reads and conversions) count at
// their decision sites in design.go; write splitting counts in the
// engine's Write with the per-write cell histogram; scrub scans and
// rewrites count in OnScrub (a design's Scrub is a pure plan, so the
// per-visit events live here on the engine).
type engineProbes struct {
	// Demand reads by service mode.
	readR, readM, readRM *telemetry.Counter
	// Hybrid's probabilistic fallbacks and past-detection reads.
	hybridRetry, silentError *telemetry.Counter
	// Read-disturb silent errors (Environment.Disturb channel).
	disturbSilent *telemetry.Counter
	// Tracked-design events.
	untracked, conversion, convSkipped, convRehit *telemetry.Counter
	// Demand-write split; writeBlocked counts full write queues.
	writeFull, writeDiff, writeBlocked *telemetry.Counter
	// Background scrub activity.
	scrubScan, scrubRewrite *telemetry.Counter
	// Per-demand-write programmed cells (size histogram).
	writeCells *telemetry.Histogram
	// Sub-interval distance between a demand write and the line's last
	// full write, observed by Select-(k:s) (design.go); the mass
	// below s is exactly the differential-write opportunity.
	selectDistance *telemetry.Histogram
	// Scrub plan, published once at startup (ms interval and the W
	// rewrite threshold) so a live snapshot is self-describing.
	scrubIntervalMS, scrubW *telemetry.Gauge
}

// disabledProbes is the shared all-nil probe set. Every disabled
// engine points here, so the Engine itself carries only one pointer:
// keeping the 18-field probe block out of the Engine struct preserves
// the seed's hot-field cache layout (measurably — embedding the block
// by value cost ~3% end-to-end even with the probe code compiled out).
var disabledProbes engineProbes

// newEngineProbes builds the probe set under the "sim" scope; a nil
// registry yields the shared all-nil (disabled) probe set.
func newEngineProbes(reg *telemetry.Registry) *engineProbes {
	s := reg.Sink("sim")
	if s == nil {
		return &disabledProbes
	}
	read, write, scrub := s.Sub("read"), s.Sub("write"), s.Sub("scrub")
	return &engineProbes{
		readR:           read.Counter("r"),
		readM:           read.Counter("m"),
		readRM:          read.Counter("rm"),
		hybridRetry:     read.Counter("hybrid_retry"),
		silentError:     read.Counter("silent_error"),
		disturbSilent:   read.Counter("disturb_silent"),
		untracked:       read.Counter("untracked"),
		conversion:      read.Counter("conversion"),
		convSkipped:     read.Counter("conversion_skipped"),
		convRehit:       read.Counter("conversion_rehit"),
		writeFull:       write.Counter("full"),
		writeDiff:       write.Counter("diff"),
		writeBlocked:    write.Counter("blocked"),
		scrubScan:       scrub.Counter("scan"),
		scrubRewrite:    scrub.Counter("rewrite"),
		writeCells:      write.Histogram("cells"),
		selectDistance:  write.Histogram("select_distance"),
		scrubIntervalMS: scrub.Gauge("interval_ms"),
		scrubW:          scrub.Gauge("w"),
	}
}
