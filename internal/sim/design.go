package sim

import (
	"math/bits"
	"time"

	"readduo/internal/area"
	"readduo/internal/drift"
	"readduo/internal/lwt"
	"readduo/internal/sense"
)

// A design point is one choice on each of three short, closed lists — the
// read path, the scrub plan and the demand-write path — plus the few
// parameters those choices take. Design is that choice as one comparable
// value, and the engine switches on it: readMode for demand reads,
// planWrite for demand writes, OnScrub for the scrub plan.

// Sense is a design's read path: which sensing services a demand read.
type Sense uint8

const (
	// SenseR services every read with fast current sensing (Ideal,
	// Scrubbing, TLC, LWC).
	SenseR Sense = iota + 1
	// SenseM services every read with slow voltage sensing (M-metric).
	SenseM
	// SenseHybrid is ReadDuo-Hybrid's readout: R-first with a
	// probabilistic M retry once drift reaches the detection region,
	// relying on W=0 scrubbing to bound every line's age.
	SenseHybrid
	// SenseTracked consults the per-line LWT flags over K sub-intervals:
	// R-sense within the tracked window, R-M-read beyond it, with optional
	// adaptive conversion (Convert) turning hot untracked lines back into
	// tracked ones (LWT-k and Select-(k:s)).
	SenseTracked
)

// Write is a design's demand-write path.
type Write uint8

const (
	// WritePlain programs the whole MLC line on every demand write and
	// keeps no tracking state (Ideal, Scrubbing, M-metric, Hybrid).
	WritePlain Write = iota + 1
	// WriteTLC is the tri-level-cell baseline: full writes over the wider
	// TLC line, with the TLC footprint on the density axis.
	WriteTLC
	// WriteTracked is LWT-k's write path: full writes, with the per-line
	// flag automaton over K sub-intervals updated on each one.
	WriteTracked
	// WriteSelect is Select-(k:s)'s selective differential write: a demand
	// write within S sub-intervals of the line's last full write programs
	// only the changed data cells (plus the parity avalanche) and leaves
	// the drift clock untouched.
	WriteSelect
	// WriteLWC is the LWC-r write path (package lwc; Kim et al., "Locally
	// Rewritable Codes for Resistive Memories"): the line's data cells are
	// grouped R-to-a-local-XOR-parity, so a demand write after first touch
	// programs only the changed data cells plus one parity per touched
	// group — no global BCH avalanche, whose refresh is deferred to the
	// next scrub rewrite. Local writes do not advance the drift clock
	// (unchanged cells keep drifting, the Figure 6 risk), which is why LWC
	// pairs with the Scrubbing baseline's aggressive 8-second scan.
	WriteLWC
)

// Scrub is a design's background scrub plan: the walker visits every line
// once per Interval, scans it with Metric and rewrites it always (W=0) or
// only when the scan finds a drifted cell (W=1). The zero value never
// scans (Ideal, TLC). The plan is published once as the
// sim.scrub.interval_ms and sim.scrub.w gauges; the per-visit telemetry
// (sim.scrub.scan, sim.scrub.rewrite) lives on Engine.OnScrub.
type Scrub struct {
	Interval time.Duration
	Metric   drift.Metric
	W        int
}

// Plan returns the walker interval (0 disables scrubbing), the scan
// metric and the rewrite threshold W.
func (p Scrub) Plan() (interval time.Duration, metric drift.Metric, w int) {
	return p.Interval, p.Metric, p.W
}

// Design is one runnable design point. It is a plain value: one Scheme is
// shared by every run that uses it, and campaign workers run concurrently,
// so per-run state belongs on the Engine.
type Design struct {
	Sense Sense
	Scrub Scrub
	Write Write
	// K is the LWT sub-interval count. Tracked sensing and tracked or
	// Select writes share it, so the read path always reads the flags
	// the writes maintain.
	K int
	// S is Select's differential window in sub-intervals (WriteSelect).
	S int
	// R is the LWC group locality (WriteLWC).
	R int
	// Convert enables adaptive R-M-read conversion (SenseTracked).
	Convert bool
	// Env is the operating environment (ambient temperature, read-disturb
	// rate); the zero value is the paper's 300 K disturb-free point. Set it
	// through Scheme.AtEnv or the temp=/disturb= spec parameters so the
	// scheme's name and spec stay in sync.
	Env Environment
}

// tracking reports whether demand writes maintain per-line LWT flags.
func (d Design) tracking() bool { return d.Write == WriteTracked || d.Write == WriteSelect }

// flagBits is the per-line SLC tracking cost in bits (0 untracked).
func (d Design) flagBits() int {
	if !d.tracking() {
		return 0
	}
	return trackingFlagBits(d.K)
}

// usesConverter reports whether reads drive the adaptive R-M-read
// conversion controller; the engine instantiates one only then.
func (d Design) usesConverter() bool { return d.Sense == SenseTracked && d.Convert }

// recordsScrubRewrites reports whether scrub rewrites advance even
// untouched lines' drift clocks. Tracking writes need it for the flag
// semantics, and Hybrid's age math relies on the W=0 rewrite guarantee.
// LWC's demand writes never advance the drift clock, so only scrub
// rewrites do: without recording them every line's age would grow
// without bound.
func (d Design) recordsScrubRewrites() bool {
	return d.tracking() || d.Sense == SenseHybrid || d.Write == WriteLWC
}

// lineCells is the physical line size, what a scrub rewrite programs: TLC
// lines hold more, lower-density cells, and LWC lines carry their local
// parities as extra MLC cells.
func (d Design) lineCells(cfg Config) int {
	switch d.Write {
	case WriteTLC:
		return cfg.TLCCellsPerLine
	case WriteLWC:
		return cfg.Mem.CellsPerLine + d.lwcGroups(cfg)
	}
	return cfg.Mem.CellsPerLine
}

// lwcGroups returns the LWC line's local-parity cell count, ceil(data/R).
func (d Design) lwcGroups(cfg Config) int {
	dataCells := cfg.Mem.CellsPerLine - cfg.ParityCells
	return (dataCells + d.R - 1) / d.R
}

// footprint is the per-line storage footprint on the density axis: the
// TLC line's, or MLC cells for the data and BCH parity (plus LWC's local
// parities) next to the SLC tracking flags.
func (d Design) footprint(cfg Config) area.LineFootprint {
	if d.Write == WriteTLC {
		return area.TLCFootprint()
	}
	parity := cfg.ParityCells
	if d.Write == WriteLWC {
		parity += d.lwcGroups(cfg)
	}
	fp, _ := area.MLCFootprint(2*parity, d.flagBits())
	return fp
}

// trackingFlagBits is the per-line SLC tracking cost of an LWT-k design:
// k vector-flag bits plus exactly ceil(log2 k) index-flag bits (the index
// names one of k sub-intervals). bits.Len(k-1) equals ceil(log2 k) for
// every k >= 2, including the powers of two.
func trackingFlagBits(k int) int {
	return k + bits.Len(uint(k-1))
}

// readMode picks the sensing that services one demand read of physical
// line phys at time now.
func (e *Engine) readMode(now int64, phys uint64) sense.Mode {
	switch e.scheme.Sense {
	case SenseM:
		return sense.ModeM
	case SenseHybrid:
		return e.hybridRead(now, phys)
	case SenseTracked:
		return e.trackedRead(now, phys)
	}
	return sense.ModeR
}

// hybridRead is SenseHybrid: R-first, with an M retry drawn from the
// line's drift age.
func (e *Engine) hybridRead(now int64, phys uint64) sense.Mode {
	// W=0 scrubbing guarantees the line was rewritten at its last scrub
	// visit; drift age is measured from the later of that and any demand
	// write.
	last := e.lineLastWrite(phys, now)
	if s := e.lastScrubAt(phys, now); s > last {
		last = s
	}
	age := e.ageSeconds(now, last)
	u := e.rng.Float64()
	if u < e.rProbs.Silent(age) {
		e.stats.silentErrors++
		e.tel.silentError.Inc()
		return sense.ModeR // wrong data returned; counted, not felt
	}
	if u < e.rProbs.Silent(age)+e.rProbs.Retry(age) {
		e.stats.hybridRetries++
		e.tel.hybridRetry.Inc()
		return sense.ModeRM
	}
	return sense.ModeR
}

// trackedRead is SenseTracked: R within the line's tracked window, R-M
// beyond it, converting hot untracked lines when the controller says so.
func (e *Engine) trackedRead(now int64, phys uint64) sense.Mode {
	k := e.scheme.K
	last := e.lineLastWrite(phys, now)
	phase := e.scrubPhase(phys)
	subNow := lwt.SubIndex(now, phase, e.scrubIntervalPS, k)
	subW := lwt.SubIndex(last, phase, e.scrubIntervalPS, k)
	e.acct.AddFlagAccess(trackingFlagBits(k))
	if lwt.AllowRSenseAt(k, subNow, subW) {
		if e.convertedLines != nil {
			if _, ok := e.convertedLines[phys]; ok {
				e.epochRehits++
				e.tel.convRehit.Inc()
			}
		}
		return sense.ModeR
	}
	// Untracked: the flags abort R-sensing into the M retry.
	e.stats.untrackedReads++
	e.epochUntracked++
	e.tel.untracked.Inc()
	if e.converter != nil && e.converter.ShouldConvert() {
		// Redundant write-back re-normalizes the line and enables fast
		// R-reads for the next interval. Opportunistic: skip when the
		// bank's write queue is saturated.
		if e.ctrl.WriteQueueSpace(phys) > 1 && e.ctrl.EnqueueWrite(now, phys, e.cfg.Mem.CellsPerLine) {
			e.lastWrite.Put(phys, now)
			e.noteDisturbRewrite(phys)
			e.acct.AddFlagAccess(trackingFlagBits(k))
			e.stats.conversions++
			e.epochConversions++
			e.tel.conversion.Inc()
			e.convertedLines[phys] = struct{}{}
		} else {
			e.stats.convSkipped++
			e.tel.convSkipped.Inc()
		}
	}
	return sense.ModeRM
}

// planWrite returns the cells one demand write of phys programs and
// whether it is a full write (advancing the line's drift clock).
func (e *Engine) planWrite(now int64, phys uint64) (cells int, full bool) {
	switch e.scheme.Write {
	case WriteTLC:
		return e.cfg.TLCCellsPerLine, true
	case WriteSelect:
		return e.selectWrite(now, phys)
	case WriteLWC:
		return e.lwcWrite(phys)
	}
	return e.cfg.Mem.CellsPerLine, true
}

// selectWrite is WriteSelect: differential within S sub-intervals of the
// line's last full write, full otherwise.
func (e *Engine) selectWrite(now int64, phys uint64) (int, bool) {
	k := e.scheme.K
	cells := e.cfg.Mem.CellsPerLine
	full := true
	if last, ok := e.lastWrite.Get(phys); ok {
		phase := e.scrubPhase(phys)
		subNow := lwt.SubIndex(now, phase, e.scrubIntervalPS, k)
		subW := lwt.SubIndex(last, phase, e.scrubIntervalPS, k)
		dist := lwt.DistanceAt(k, subNow, subW)
		e.tel.selectDistance.Observe(uint64(dist))
		if dist < e.scheme.S {
			full = false
			dataCells := e.cfg.Mem.CellsPerLine - e.cfg.ParityCells
			cells = int(float64(dataCells)*e.cfg.DiffDataCellFraction) + e.cfg.ParityCells
		}
	}
	e.acct.AddFlagAccess(trackingFlagBits(k))
	return cells, full
}

// lwcWrite is WriteLWC: the whole line on first touch, the closed-form
// local update cost after.
func (e *Engine) lwcWrite(phys uint64) (int, bool) {
	if _, ok := e.lastWrite.Get(phys); !ok {
		// First touch: program the whole line, local parities included.
		return e.scheme.lineCells(e.cfg), true
	}
	// Local rewrite: expected changed data cells plus one parity per
	// touched group — lwc.ExpectedUpdateCost at the engine's geometry.
	r := e.scheme.R
	dataCells := e.cfg.Mem.CellsPerLine - e.cfg.ParityCells
	f := e.cfg.DiffDataCellFraction
	cost := float64(dataCells) * f
	fullGroups, rem := dataCells/r, dataCells%r
	cost += float64(fullGroups) * (1 - powN(1-f, r))
	if rem > 0 {
		cost += 1 - powN(1-f, rem)
	}
	return int(cost), false
}

// powN computes q^n by repeated multiplication, the exact arithmetic of
// lwc.ExpectedUpdateCost, so the engine's deterministic cell counts agree
// with the package's closed form to the last bit.
func powN(q float64, n int) float64 {
	v := 1.0
	for i := 0; i < n; i++ {
		v *= q
	}
	return v
}
