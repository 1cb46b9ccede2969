package sim

import (
	"time"

	"readduo/internal/energy"
	"readduo/internal/memctrl"
	"readduo/internal/sense"
)

// Result carries everything the evaluation figures need from one run.
type Result struct {
	Scheme    string
	Benchmark string

	// ExecTime is the time the last core retired its budget — the
	// quantity Figure 9 normalizes.
	ExecTime time.Duration
	// Instructions is the total retired across cores.
	Instructions uint64

	// Mem is the raw controller activity.
	Mem memctrl.Stats

	// Reads by service mode.
	RReads, MReads, RMReads uint64
	// UntrackedReads hit lines beyond the tracking window (the paper's
	// P%); Conversions counts R-M-reads converted to redundant writes.
	UntrackedReads     uint64
	Conversions        uint64
	ConversionsSkipped uint64
	// HybridRetries counts Hybrid's drift-triggered R-M-reads;
	// SilentErrors counts reads past the detection reach.
	HybridRetries uint64
	SilentErrors  uint64
	// ConverterT is the final adaptive conversion percentage.
	ConverterT int

	// FullWrites/DiffWrites split the demand write stream.
	FullWrites, DiffWrites uint64

	// Energy is the dynamic breakdown; SystemEnergyPJ adds static power
	// over ExecTime (Product-S).
	Energy         energy.Breakdown
	SystemEnergyPJ float64
	// CellWrites is total programmed cells (demand + scrub + wasted
	// cancellation work), the lifetime determinant.
	CellWrites uint64

	// AreaCellsPerLine is the scheme's per-line storage footprint in
	// equivalent cells (Figure 11's density axis).
	AreaCellsPerLine float64
}

// result finalizes the run statistics over the measurement window (from
// the warmup mark to the last core's retirement).
func (e *Engine) result() *Result {
	execPS := e.cluster.FinishTime() - e.markTimePS
	if execPS < 0 {
		execPS = 0
	}
	execTime := time.Duration(execPS/1000) * time.Nanosecond
	st := e.ctrl.Stats().Sub(e.markMem)
	run := e.stats.sub(e.markRun)
	instr := e.cluster.TotalRetired() - e.markInstr

	r := &Result{
		Scheme:             e.scheme.Name(),
		Benchmark:          e.cfg.Bench.Name,
		ExecTime:           execTime,
		Instructions:       instr,
		Mem:                st,
		RReads:             st.ReadsByMode[sense.ModeR],
		MReads:             st.ReadsByMode[sense.ModeM],
		RMReads:            st.ReadsByMode[sense.ModeRM],
		UntrackedReads:     run.untrackedReads,
		Conversions:        run.conversions,
		ConversionsSkipped: run.convSkipped,
		HybridRetries:      run.hybridRetries,
		SilentErrors:       run.silentErrors,
		FullWrites:         run.fullWrites,
		DiffWrites:         run.diffWrites,
		Energy:             e.acct.Dynamic().Sub(e.markEnergy),
		CellWrites:         e.acct.WriteCellCount() - e.markCellWr,
		AreaCellsPerLine:   e.scheme.footprint(e.cfg).EquivalentCells(),
	}
	// System energy = measured dynamic window + static power over it.
	r.SystemEnergyPJ = r.Energy.Total() +
		e.cfg.Energy.StaticPowerWatts*execTime.Seconds()*1e12
	if e.converter != nil {
		r.ConverterT = e.converter.T()
	}
	return r
}

// UntrackedFraction returns P%, the share of reads landing beyond the
// tracking window.
func (r *Result) UntrackedFraction() float64 {
	total := r.RReads + r.MReads + r.RMReads
	if total == 0 {
		return 0
	}
	return float64(r.UntrackedReads) / float64(total)
}

// IPC returns retired instructions per core-cycle-equivalent nanosecond
// aggregated across cores (diagnostic).
func (r *Result) IPC(freqGHz float64, cores int) float64 {
	if r.ExecTime <= 0 {
		return 0
	}
	cycles := r.ExecTime.Seconds() * freqGHz * 1e9 * float64(cores)
	return float64(r.Instructions) / cycles
}
