// Package energy provides the dynamic- and system-energy accounting for the
// ReadDuo evaluation (the paper's Table IX and Figures 10/11).
//
// Substitution note: the published table's numeric cells are not legible in
// the available text, so the per-cell energies below are drawn from the MLC
// PCM literature the paper cites (iterative program-and-verify writes cost
// tens of pJ per cell; voltage sensing holds the bias ~3x longer than
// current sensing, costing proportionally more). All figures that use them
// are reported normalized, which is what the paper reports too, so the
// ratios — not the absolute pJ — carry the results.
package energy

import (
	"fmt"
	"time"
)

// Params holds per-operation energies in picojoules and the background
// power used for system energy.
type Params struct {
	// RReadPerCell is the current-sensing read energy per MLC cell.
	RReadPerCell float64
	// MReadPerCell is the voltage-sensing read energy per MLC cell; the
	// 450 ns sensing window burns ~3x the 150 ns current sense.
	MReadPerCell float64
	// WritePerCell is the average iterative P&V programming energy per
	// MLC cell.
	WritePerCell float64
	// FlagBitAccess is the SLC flag read/update energy per bit.
	FlagBitAccess float64
	// StaticPowerWatts is the background power of the PCM rank plus its
	// bridge/ECC chips, charged against wall-clock time for Product-S.
	StaticPowerWatts float64
}

// DefaultParams returns the configuration used throughout the evaluation.
func DefaultParams() Params {
	return Params{
		RReadPerCell:     2.0,  // pJ
		MReadPerCell:     6.0,  // pJ
		WritePerCell:     50.0, // pJ
		FlagBitAccess:    0.2,  // pJ
		StaticPowerWatts: 0.35, // W per rank
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.RReadPerCell <= 0 || p.MReadPerCell <= 0 || p.WritePerCell <= 0 {
		return fmt.Errorf("energy: per-cell energies must be positive: %+v", p)
	}
	if p.FlagBitAccess < 0 || p.StaticPowerWatts < 0 {
		return fmt.Errorf("energy: flag/static parameters must be nonnegative: %+v", p)
	}
	return nil
}

// Accounting accumulates energy over a simulation run. The zero value is
// unusable; construct with NewAccounting.
type Accounting struct {
	params Params

	rReadCells      uint64
	mReadCells      uint64
	writeCells      uint64
	flagBits        uint64
	scrubReadCellsR uint64
	scrubReadCellsM uint64
	scrubWriteCells uint64
}

// NewAccounting builds an accumulator with the given parameters.
func NewAccounting(params Params) (*Accounting, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Accounting{params: params}, nil
}

// AddRRead charges a demand R-read of cells MLC cells.
func (a *Accounting) AddRRead(cells int) { a.rReadCells += uint64(cells) }

// AddMRead charges a demand M-read.
func (a *Accounting) AddMRead(cells int) { a.mReadCells += uint64(cells) }

// AddRMRead charges an R-M-read: both sensing rounds touch every cell.
func (a *Accounting) AddRMRead(cells int) {
	a.rReadCells += uint64(cells)
	a.mReadCells += uint64(cells)
}

// AddWrite charges programming of cellsWritten cells (full-line or
// differential; callers pass the actual programmed count).
func (a *Accounting) AddWrite(cellsWritten int) { a.writeCells += uint64(cellsWritten) }

// AddFlagAccess charges an SLC flag read or update of the given bit count.
func (a *Accounting) AddFlagAccess(nbits int) { a.flagBits += uint64(nbits) }

// AddScrubRead charges a scrub scan read (voltage indicates M-sensing).
func (a *Accounting) AddScrubRead(cells int, voltage bool) {
	if voltage {
		a.scrubReadCellsM += uint64(cells)
	} else {
		a.scrubReadCellsR += uint64(cells)
	}
}

// AddScrubWrite charges a scrub rewrite.
func (a *Accounting) AddScrubWrite(cellsWritten int) { a.scrubWriteCells += uint64(cellsWritten) }

// Breakdown itemizes accumulated dynamic energy in picojoules.
type Breakdown struct {
	ReadPJ       float64
	WritePJ      float64
	ScrubReadPJ  float64
	ScrubWritePJ float64
	FlagPJ       float64
}

// Total returns the summed dynamic energy in pJ.
func (b Breakdown) Total() float64 {
	return b.ReadPJ + b.WritePJ + b.ScrubReadPJ + b.ScrubWritePJ + b.FlagPJ
}

// Sub returns the component-wise difference b - base, used to report a
// measurement window that excludes simulator warmup.
func (b Breakdown) Sub(base Breakdown) Breakdown {
	return Breakdown{
		ReadPJ:       b.ReadPJ - base.ReadPJ,
		WritePJ:      b.WritePJ - base.WritePJ,
		ScrubReadPJ:  b.ScrubReadPJ - base.ScrubReadPJ,
		ScrubWritePJ: b.ScrubWritePJ - base.ScrubWritePJ,
		FlagPJ:       b.FlagPJ - base.FlagPJ,
	}
}

// Dynamic returns the itemized dynamic energy.
func (a *Accounting) Dynamic() Breakdown {
	p := a.params
	return Breakdown{
		ReadPJ:       float64(a.rReadCells)*p.RReadPerCell + float64(a.mReadCells)*p.MReadPerCell,
		WritePJ:      float64(a.writeCells) * p.WritePerCell,
		ScrubReadPJ:  float64(a.scrubReadCellsR)*p.RReadPerCell + float64(a.scrubReadCellsM)*p.MReadPerCell,
		ScrubWritePJ: float64(a.scrubWriteCells) * p.WritePerCell,
		FlagPJ:       float64(a.flagBits) * p.FlagBitAccess,
	}
}

// System returns dynamic energy plus static power integrated over the run
// duration, in pJ — the paper's Product-S energy term.
func (a *Accounting) System(duration time.Duration) float64 {
	staticPJ := a.params.StaticPowerWatts * duration.Seconds() * 1e12
	return a.Dynamic().Total() + staticPJ
}

// WriteCellCount reports total programmed cells (demand + scrub), the
// quantity lifetime is computed from.
func (a *Accounting) WriteCellCount() uint64 {
	return a.writeCells + a.scrubWriteCells
}
