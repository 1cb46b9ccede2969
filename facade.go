package readduo

import (
	"fmt"
	"io"
	"math/rand"

	"readduo/internal/area"
	"readduo/internal/bch"
	"readduo/internal/cell"
	"readduo/internal/drift"
	"readduo/internal/ecp"
	"readduo/internal/lifetime"
	"readduo/internal/lwt"
	"readduo/internal/metrics"
	"readduo/internal/readout"
	"readduo/internal/reliability"
	"readduo/internal/sdw"
	"readduo/internal/sense"
	"readduo/internal/sim"
	"readduo/internal/trace"
	"readduo/internal/wearlevel"
)

// ---------------------------------------------------------------------------
// Drift models (Tables I and II)

// DriftConfig describes one readout metric of a 4-level MLC cell: the
// per-level initial distributions and drift exponents of Eq. 1/2.
type DriftConfig = drift.Config

// DriftLevel holds one storage level's parameters.
type DriftLevel = drift.Level

// Metric identifies a readout metric.
type Metric = drift.Metric

// Readout metrics.
const (
	MetricR = drift.MetricR // current sensing (fast, drift-prone)
	MetricM = drift.MetricM // voltage sensing (slow, drift-resilient)
)

// RMetric returns the paper's Table I R-metric configuration.
func RMetric() DriftConfig { return drift.RMetricConfig() }

// MMetric returns the paper's Table II M-metric configuration.
func MMetric() DriftConfig { return drift.MMetricConfig() }

// ---------------------------------------------------------------------------
// Reliability planning (Tables III-V)

// ReliabilityAnalyzer evaluates line error rates for one metric.
type ReliabilityAnalyzer = reliability.Analyzer

// ScrubPolicy is an (E, S, W) efficient-scrubbing configuration.
type ScrubPolicy = reliability.Policy

// PolicyReport carries the probabilities behind a policy verdict.
type PolicyReport = reliability.PolicyReport

// LERTable is a rendered Table III/IV grid.
type LERTable = reliability.Table

// NewReliabilityAnalyzer builds an analyzer over a drift configuration.
func NewReliabilityAnalyzer(cfg DriftConfig) (*ReliabilityAnalyzer, error) {
	return reliability.NewAnalyzer(cfg)
}

// DRAMTargetLER returns the paper's DRAM-equivalence budget over an
// interval of `seconds` (25 FIT/Mbit -> 3.56e-15 per line-second).
func DRAMTargetLER(seconds float64) float64 { return reliability.TargetLER(seconds) }

// ---------------------------------------------------------------------------
// ECC (BCH codec)

// LineCode is a binary BCH code protecting a memory line.
type LineCode = bch.Code

// DecodeStatus classifies a decode outcome.
type DecodeStatus = bch.Status

// Decode outcomes.
const (
	DecodeClean         = bch.StatusClean
	DecodeCorrected     = bch.StatusCorrected
	DecodeUncorrectable = bch.StatusUncorrectable
)

// NewLineCode returns the paper's line code: BCH-8 over GF(2^10) protecting
// a 512-bit line with 80 parity bits.
func NewLineCode() (*LineCode, error) { return bch.New(10, 8, 512) }

// NewBCH builds a custom t-error-correcting BCH code over GF(2^m),
// shortened to dataBits of payload.
func NewBCH(m, t, dataBits int) (*LineCode, error) { return bch.New(m, t, dataBits) }

// ---------------------------------------------------------------------------
// Monte-Carlo cells and lines

// Cell is one simulated 2-bit MLC PCM cell.
type Cell = cell.Cell

// Line is a BCH-protected 64-byte line of simulated cells.
type Line = cell.Line

// Population is a cohort of same-level cells for distribution studies
// (Figure 6).
type Population = cell.Population

// LineReadMetric selects a line read's sensing circuit.
type LineReadMetric = cell.ReadMetric

// Line read metrics.
const (
	LineReadR = cell.ReadR
	LineReadM = cell.ReadM
)

// NewMLCLine builds an unwritten BCH-8-protected MLC line with the paper's
// drift parameters.
func NewMLCLine() (*Line, error) {
	code, err := NewLineCode()
	if err != nil {
		return nil, err
	}
	return cell.NewLine(drift.RMetricConfig(), drift.MMetricConfig(), code)
}

// NewMLCPopulation programs n cells to the given storage level at time 0
// under the paper's R-metric parameters, for distribution studies.
func NewMLCPopulation(level, n int, rng *rand.Rand) (*Population, error) {
	return cell.NewPopulation(drift.RMetricConfig(), level, n, rng)
}

// ShardedPopulation is the parallel Monte-Carlo form of Population:
// deterministic for a fixed (seed, shard count), scaling across cores.
type ShardedPopulation = cell.ShardedPopulation

// NewMLCShardedPopulation programs n cells to the given storage level at
// time 0 under the paper's R-metric parameters, sharded for parallel
// studies. Pin the shard count to reproduce a cohort; workers <= 0 uses
// the machine's parallelism and never affects results.
func NewMLCShardedPopulation(level, n int, seed int64, shards, workers int) (*ShardedPopulation, error) {
	return cell.NewShardedPopulation(drift.RMetricConfig(), level, n, seed, shards, workers)
}

// ---------------------------------------------------------------------------
// Tracking and write policies

// Tracker is the per-line LWT flag automaton (vector-flag + index-flag).
type Tracker = lwt.Tracker

// NewTracker builds an LWT-k tracker.
func NewTracker(k int) (*Tracker, error) { return lwt.New(k) }

// Converter is the adaptive R-M-read conversion controller.
type Converter = lwt.Converter

// NewConverter builds a conversion controller starting at T=50%.
func NewConverter() (*Converter, error) { return lwt.NewConverter() }

// SDWPolicy is a Select-(k:s) selective differential write policy.
type SDWPolicy = sdw.Policy

// WriteMode is a full or differential write decision.
type WriteMode = sdw.WriteMode

// Write modes.
const (
	WriteFull         = sdw.WriteFull
	WriteDifferential = sdw.WriteDifferential
)

// NewSDWPolicy builds a Select-(k:s) policy.
func NewSDWPolicy(k, s int) (*SDWPolicy, error) { return sdw.New(k, s) }

// ---------------------------------------------------------------------------
// The assembled ReadDuo device

// Device is one ReadDuo-managed memory line running the complete pipeline
// (R-first hybrid sensing, BCH-8, LWT flags, conversion, SDW, M-scrub) on
// Monte-Carlo cells.
type Device = readout.Device

// DeviceConfig assembles a Device.
type DeviceConfig = readout.Config

// DeviceReadResult is the outcome of a Device read.
type DeviceReadResult = readout.ReadResult

// DeviceStats counts Device activity.
type DeviceStats = readout.Stats

// DefaultDeviceConfig returns the paper's ReadDuo-Select-(4:2) device.
func DefaultDeviceConfig() DeviceConfig { return readout.DefaultConfig() }

// NewDevice builds a ReadDuo device.
func NewDevice(cfg DeviceConfig) (*Device, error) { return readout.NewDevice(cfg) }

// DeviceArray is a region of ReadDuo lines with staggered scrub phases and
// one shared adaptive conversion controller — the device-tier counterpart
// of a PCM bank.
type DeviceArray = readout.Array

// NewDeviceArray builds a region of `lines` devices; conversion adapts over
// epochs of epochReads reads (1024 when zero).
func NewDeviceArray(cfg DeviceConfig, lines int, epochReads uint64) (*DeviceArray, error) {
	return readout.NewArray(cfg, lines, epochReads)
}

// ---------------------------------------------------------------------------
// Readout model

// ReadMode identifies how a read was serviced (R-read / M-read / R-M-read).
type ReadMode = sense.Mode

// Read modes.
const (
	ReadModeR  = sense.ModeR
	ReadModeM  = sense.ModeM
	ReadModeRM = sense.ModeRM
)

// SenseTiming holds the sensing/programming latencies (150/450/1000 ns).
type SenseTiming = sense.Timing

// DefaultSenseTiming returns the paper's latencies.
func DefaultSenseTiming() SenseTiming { return sense.DefaultTiming() }

// ---------------------------------------------------------------------------
// Full-system simulation

// Scheme is one of the evaluated design points: a named SchemeDesign.
type Scheme = sim.Scheme

// SchemeDesign is the value behind a Scheme: a sense mode, a scrub plan, a
// write mode, the parameters they take (K sub-intervals for tracking, S
// for Select, R for LWC, Convert for adaptive conversion) and the
// environment.
type SchemeDesign = sim.Design

// SchemeSense, SchemeScrub and SchemeWrite are a SchemeDesign's read path,
// scrub plan (the zero value never scrubs) and demand-write path.
type (
	SchemeSense = sim.Sense
	SchemeScrub = sim.Scrub
	SchemeWrite = sim.Write
)

// The paper's schemes, plus the LWC write family (Kim et al., "Locally
// Rewritable Codes for Resistive Memories").
var (
	SchemeIdeal     = sim.Ideal
	SchemeScrubbing = sim.Scrubbing
	SchemeMMetric   = sim.MMetric
	SchemeTLC       = sim.TLC
	SchemeHybrid    = sim.Hybrid
	SchemeLWT       = sim.LWT
	SchemeSelect    = sim.Select
	SchemeLWC       = sim.LWC
)

// SchemeEnvironment is the physical environment a scheme runs in: the
// ambient temperature scaling drift (Kelvin, 300 = the paper's model) and
// the per-read disturb probability (0 = channel off). The zero value is
// the paper's default physics.
type SchemeEnvironment = sim.Environment

// SchemeAtEnv returns the scheme evaluated in the given environment; the
// default environment returns the scheme unchanged, so canonical names
// and result caches stay stable.
func SchemeAtEnv(s Scheme, env SchemeEnvironment) (Scheme, error) { return s.AtEnv(env) }

// Sense and write modes for composing schemes beyond the paper's seven.
const (
	SchemeSenseR       = sim.SenseR       // R-sense every read
	SchemeSenseM       = sim.SenseM       // M-sense every read
	SchemeSenseHybrid  = sim.SenseHybrid  // R first, M retry by drift age
	SchemeSenseTracked = sim.SenseTracked // LWT flags over K sub-intervals
	SchemeWritePlain   = sim.WritePlain   // full MLC line writes
	SchemeWriteTLC     = sim.WriteTLC     // full writes over the TLC line
	SchemeWriteTracked = sim.WriteTracked // full writes maintaining LWT flags
	SchemeWriteSelect  = sim.WriteSelect  // Select-(K:S) differential writes
	SchemeWriteLWC     = sim.WriteLWC     // LWC-R local rewrites
)

// ComposeScheme names an arbitrary design so it can run anywhere a paper
// scheme can.
func ComposeScheme(label string, d SchemeDesign) Scheme { return sim.Compose(label, d) }

// ParseScheme resolves one scheme spec string: a paper name ("LWT-8"), a
// registry alias ("mmetric"), a parameterized family ("select:k=4,s=2",
// "lwc:r=16"), or any of those in an environment ("scrubbing:temp=250",
// "LWT-4@disturb=1e-06").
func ParseScheme(spec string) (Scheme, error) { return sim.Parse(spec) }

// ParseSchemes resolves a comma-separated scheme list.
func ParseSchemes(list string) ([]Scheme, error) { return sim.ParseList(list) }

// SchemeGrammars lists every registered scheme family's spec grammar.
func SchemeGrammars() []string { return sim.SchemeGrammars() }

// Scheme sets used throughout the evaluation.
var (
	PriorSchemes   = sim.PriorSchemes   // Ideal, Scrubbing, M-metric, TLC
	ReadDuoSchemes = sim.ReadDuoSchemes // Ideal, Hybrid, LWT-4, Select-4:2
	AllSchemes     = sim.AllSchemes     // the full seven-scheme comparison
)

// SimConfig assembles a full-system run.
type SimConfig = sim.Config

// SimResult carries a run's statistics.
type SimResult = sim.Result

// Benchmark is one synthetic workload profile.
type Benchmark = trace.Benchmark

// Benchmarks returns the 14-workload evaluation suite (Table X stand-in).
func Benchmarks() []Benchmark { return trace.Benchmarks() }

// TraceRecord is one recorded memory access.
type TraceRecord = trace.Record

// TraceReplayer replays a recorded trace file as a simulation source (set
// it as SimConfig.Source).
type TraceReplayer = trace.Replayer

// NewTraceReplayer opens a trace file written by `readduo-sim trace` or
// NewTraceWriter.
func NewTraceReplayer(r io.ReadSeeker) (*TraceReplayer, error) { return trace.NewReplayer(r) }

// TraceWriter streams records to a trace file.
type TraceWriter = trace.Writer

// NewTraceWriter starts a trace capture.
func NewTraceWriter(w io.Writer, benchName string, cores int) (*TraceWriter, error) {
	return trace.NewWriter(w, benchName, cores)
}

// BenchmarkByName finds a suite workload.
func BenchmarkByName(name string) (Benchmark, bool) { return trace.ByName(name) }

// SimConfigFor returns the default full-system configuration for a named
// suite workload.
func SimConfigFor(benchName string) (SimConfig, error) {
	b, ok := trace.ByName(benchName)
	if !ok {
		return SimConfig{}, fmt.Errorf("readduo: unknown benchmark %q", benchName)
	}
	return sim.DefaultConfig(b), nil
}

// Simulate runs one (workload, scheme) evaluation.
func Simulate(cfg SimConfig, scheme Scheme) (*SimResult, error) { return sim.Run(cfg, scheme) }

// ---------------------------------------------------------------------------
// Hard-error and endurance substrates (the orthogonal directions §III-E and
// §VI point at: ECP-style pointer correction and Start-Gap wear leveling)

// ECPTable is an Error-Correcting-Pointers structure for one line.
type ECPTable = ecp.Table

// ECPLine couples a Monte-Carlo line with an ECP table: verified writes
// register stuck cells; reads repair them before ECC decoding.
type ECPLine = ecp.ProtectedLine

// ErrECPExhausted reports a line with more hard failures than its table
// covers.
var ErrECPExhausted = ecp.ErrExhausted

// NewECPLine wraps an MLC line with an ECP-capacity hard-error table.
func NewECPLine(line *Line, capacity int) (*ECPLine, error) {
	return ecp.NewProtectedLine(line, capacity)
}

// StartGap is the Start-Gap wear-leveling mapper.
type StartGap = wearlevel.StartGap

// WearMove is one gap relocation the controller must execute.
type WearMove = wearlevel.Move

// NewStartGap builds a Start-Gap mapper over `lines` logical lines, moving
// the gap every psi writes.
func NewStartGap(lines, psi uint64) (*StartGap, error) { return wearlevel.New(lines, psi) }

// ---------------------------------------------------------------------------
// Composite metrics, area, lifetime

// EDAP returns the paper's energy x delay x area product.
func EDAP(energy, delay, areaCells float64) (float64, error) {
	return metrics.EDAP(energy, delay, areaCells)
}

// Improvement returns how much lower value is than baseline (0.37 = 37%).
func Improvement(baseline, value float64) (float64, error) {
	return metrics.Improvement(baseline, value)
}

// LineFootprint is a scheme's per-line storage cost.
type LineFootprint = area.LineFootprint

// MLCLineFootprint returns the cell cost of a BCH-protected MLC line with
// optional SLC flag bits.
func MLCLineFootprint(parityBits, flagBits int) (LineFootprint, error) {
	return area.MLCFootprint(parityBits, flagBits)
}

// TLCLineFootprint returns the tri-level-cell baseline's footprint.
func TLCLineFootprint() LineFootprint { return area.TLCFootprint() }

// HybridSenseAmpOverhead returns the fractional area cost of adding
// voltage-mode sensing to a current-sensing subarray (paper: ~0.27%).
func HybridSenseAmpOverhead() (float64, error) {
	return area.DefaultSubarray().HybridOverhead()
}

// LifetimeModel projects chip lifetime from write traffic.
type LifetimeModel = lifetime.Model

// NewLifetimeModel builds a lifetime model.
func NewLifetimeModel(endurancePerCell, totalCells float64) (*LifetimeModel, error) {
	return lifetime.NewModel(endurancePerCell, totalCells)
}

// RelativeLifetime compares write traffic: >1 means the scheme's chip
// outlives the baseline's.
func RelativeLifetime(baselineCellWrites, schemeCellWrites uint64) (float64, error) {
	return lifetime.Relative(baselineCellWrites, schemeCellWrites)
}
