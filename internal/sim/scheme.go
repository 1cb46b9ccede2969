// Package sim wires the ReadDuo substrates — drift reliability model, CPU
// cluster, memory controller, scrub engine, LWT/SDW policies, and energy/
// area/lifetime accounting — into full-system simulations of the seven
// schemes the paper evaluates, and produces the statistics behind every
// figure of the evaluation section.
//
// Methodology (see DESIGN.md §2): the simulation window covers a short
// burst of execution at full memory scale, so bank-level interference
// (scrub rates, queueing, write cancellation) is exact; the 640-second
// drift/tracking dynamics enter through per-line virtual write ages sampled
// from the workload profile and through each line's scrub phase, exploiting
// the proven equivalence between the LWT flag automaton and sub-interval
// index arithmetic (package lwt).
//
// A design point is one closed value: a Scheme is a named Design — a
// sense mode, a scrub plan, a write mode, the parameters they take and the
// operating environment — and the engine switches on it. The paper's seven
// schemes are registry-backed constructors below; other design points come
// from Parse ("lwt:k=8", "Select-4:2") or Compose.
package sim

import (
	"fmt"
	"time"

	"readduo/internal/drift"
	"readduo/internal/lwc"
	"readduo/internal/lwt"
)

// Scheme is one named design point: a Design plus its canonical paper
// label and spec string. Schemes are comparable values; two schemes built
// from the same constructor or spec are ==.
type Scheme struct {
	// name is the paper's label ("LWT-4"); spec is the canonical
	// parameterized form ("lwt:k=4"). Parse accepts both.
	name string
	spec string
	Design
}

// The paper's named design points, all registry-backed: Parse(s.Name())
// and Parse(s.Spec()) reproduce every scheme these constructors return.

// Ideal returns the drift-free reference: R-reads, no scrubbing.
func Ideal() Scheme {
	return Scheme{name: "Ideal", spec: "ideal",
		Design: Design{Sense: SenseR, Write: WritePlain}}
}

// Scrubbing returns the R-sensing efficient-scrubbing baseline,
// (BCH=8, S=8s, W=1).
func Scrubbing() Scheme {
	return Scheme{name: "Scrubbing", spec: "scrubbing",
		Design: Design{
			Sense: SenseR,
			Scrub: Scrub{Interval: 8 * time.Second, Metric: drift.MetricR, W: 1},
			Write: WritePlain,
		}}
}

// MMetric returns the all-voltage-sensing baseline, (BCH=8, S=640s, W=1).
func MMetric() Scheme {
	return Scheme{name: "M-metric", spec: "m-metric",
		Design: Design{
			Sense: SenseM,
			Scrub: Scrub{Interval: 640 * time.Second, Metric: drift.MetricM, W: 1},
			Write: WritePlain,
		}}
}

// TLC returns the tri-level-cell baseline: drift-immune, no scrubbing,
// lower density.
func TLC() Scheme {
	return Scheme{name: "TLC", spec: "tlc",
		Design: Design{Sense: SenseR, Write: WriteTLC}}
}

// Hybrid returns ReadDuo-Hybrid: R-first reads with M retry,
// (BCH=8, S=640s, W=0).
func Hybrid() Scheme {
	return Scheme{name: "Hybrid", spec: "hybrid",
		Design: Design{
			Sense: SenseHybrid,
			Scrub: Scrub{Interval: 640 * time.Second, Metric: drift.MetricM, W: 0},
			Write: WritePlain,
		}}
}

// LWT returns ReadDuo-LWT-k: last-write tracking enables
// (BCH=8, S=640s, W=1) plus optional R-M-read conversion (Figure 14 turns
// it off).
func LWT(k int, convert bool) Scheme {
	name, spec := fmt.Sprintf("LWT-%d", k), fmt.Sprintf("lwt:k=%d", k)
	if !convert {
		name += "-noconv"
		spec += ",convert=false"
	}
	return Scheme{name: name, spec: spec,
		Design: Design{
			Sense:   SenseTracked,
			Scrub:   Scrub{Interval: 640 * time.Second, Metric: drift.MetricM, W: 1},
			Write:   WriteTracked,
			K:       k,
			Convert: convert,
		}}
}

// LWC returns the locally-rewritable-code design (Kim et al., PAPERS.md):
// R-sensing with efficient scrubbing like the Scrubbing baseline, but
// demand writes after first touch program only the changed data cells plus
// their local XOR group parities (locality r) instead of the full line —
// trading scrub pressure for write cost and lifetime against LWT/SDW.
func LWC(r int) Scheme {
	return Scheme{name: fmt.Sprintf("LWC-%d", r), spec: fmt.Sprintf("lwc:r=%d", r),
		Design: Design{
			Sense: SenseR,
			Scrub: Scrub{Interval: 8 * time.Second, Metric: drift.MetricR, W: 1},
			Write: WriteLWC,
			R:     r,
		}}
}

// Select returns ReadDuo-Select-(k:s): LWT plus selective differential
// writes.
func Select(k, s int) Scheme {
	return Scheme{
		name: fmt.Sprintf("Select-%d:%d", k, s),
		spec: fmt.Sprintf("select:k=%d,s=%d", k, s),
		Design: Design{
			Sense:   SenseTracked,
			Scrub:   Scrub{Interval: 640 * time.Second, Metric: drift.MetricM, W: 1},
			Write:   WriteSelect,
			K:       k,
			S:       s,
			Convert: true,
		}}
}

// Compose builds a scheme from an explicit Design under the given label.
// The label serves as both Name and Spec; unless it matches a registered
// family's grammar, Parse will not reconstruct the scheme from it.
func Compose(label string, d Design) Scheme {
	return Scheme{name: label, spec: label, Design: d}
}

// Name renders the paper's label for the scheme.
func (s Scheme) Name() string { return s.name }

// Spec renders the canonical spec string; Parse(s.Spec()) reproduces the
// scheme for every registered design.
func (s Scheme) Spec() string { return s.spec }

// Validate checks the scheme's modes, the parameters they take, the scrub
// plan and the environment. A parameter that no chosen mode reads is an
// error rather than ignored, so two schemes that run alike compare equal.
func (s Scheme) Validate() error {
	if s.Sense < SenseR || s.Sense > SenseTracked || s.Write < WritePlain || s.Write > WriteLWC {
		return fmt.Errorf("sim: scheme %q has no valid sense or write mode (use the sim constructors, Parse, or Compose)", s.name)
	}
	usesK := s.Sense == SenseTracked || s.tracking()
	switch {
	case usesK && (s.K < 2 || s.K > lwt.MaxK):
		return fmt.Errorf("sim: LWT k=%d out of range 2..%d", s.K, lwt.MaxK)
	case s.Write == WriteSelect && (s.S < 1 || s.S > s.K):
		return fmt.Errorf("sim: Select s=%d out of range 1..%d", s.S, s.K)
	case s.Write == WriteLWC && (s.R < 2 || s.R > lwc.MaxR):
		return fmt.Errorf("sim: LWC r=%d out of range 2..%d", s.R, lwc.MaxR)
	case !usesK && s.K != 0, s.Write != WriteSelect && s.S != 0,
		s.Write != WriteLWC && s.R != 0, s.Sense != SenseTracked && s.Convert:
		return fmt.Errorf("sim: scheme %q sets a parameter its modes do not use (k=%d, s=%d, r=%d, convert=%v)",
			s.name, s.K, s.S, s.R, s.Convert)
	}
	if p := s.Scrub; p != (Scrub{}) {
		if p.Interval <= 0 {
			return fmt.Errorf("sim: scrub interval %v must be positive", p.Interval)
		}
		if p.Metric != drift.MetricR && p.Metric != drift.MetricM {
			return fmt.Errorf("sim: unknown scrub metric %d", p.Metric)
		}
		if p.W < 0 || p.W > 1 {
			return fmt.Errorf("sim: scrub threshold W=%d outside {0,1}", p.W)
		}
	}
	if err := s.Env.Validate(); err != nil {
		return fmt.Errorf("sim: scheme %q: %w", s.name, err)
	}
	return nil
}

// FlagBits returns the per-line SLC tracking cost.
func (s Scheme) FlagBits() int { return s.flagBits() }
