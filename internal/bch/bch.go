// Package bch implements binary BCH codes over GF(2^m), the error-correcting
// codes ReadDuo attaches to every MLC PCM line (BCH-8 over 512 data bits).
//
// The implementation is a complete hard-decision codec: systematic LFSR
// encoding against the generator polynomial, syndrome computation,
// Berlekamp-Massey to build the error locator, and Chien search to find
// error positions. Codes may be shortened (dataBits < k), matching the
// 512+80-bit line layout built from the natural BCH(1023, 943) code.
//
// ReadDuo decouples error detection from correction: a BCH-t code corrects
// up to t errors, but its designed distance 2t+1 lets the decoder *flag*
// heavier patterns as uncorrectable instead of returning wrong data. Decode
// reports that distinction through Status.
//
// The package is a pure codec: it depends only on internal/gf and keeps no
// package state or telemetry. The device model (internal/cell,
// internal/readout) runs it per line; the statistical simulator
// (internal/sim) models its outcomes as precomputed line-error
// probabilities instead and never calls it.
package bch

import (
	"errors"
	"fmt"

	"readduo/internal/gf"
)

// Status classifies a decode outcome.
type Status int

// Decode outcomes.
const (
	// StatusClean means all syndromes were zero: no errors detected.
	StatusClean Status = iota + 1
	// StatusCorrected means <= t errors were found and repaired in place.
	StatusCorrected
	// StatusUncorrectable means the decoder detected more than t errors
	// (up to the designed detection reach) and left the data untouched.
	StatusUncorrectable
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusClean:
		return "clean"
	case StatusCorrected:
		return "corrected"
	case StatusUncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result describes the outcome of a Decode call.
type Result struct {
	Status Status
	// CorrectedBits lists the flipped bit positions (codeword numbering:
	// 0..parityBits-1 are parity, parityBits..parityBits+dataBits-1 are
	// data). Empty unless Status == StatusCorrected.
	CorrectedBits []int
}

// ErrBadLength reports data or parity buffers of the wrong size.
var ErrBadLength = errors.New("bch: buffer length does not match code geometry")

// Code is a (possibly shortened) binary BCH code.
type Code struct {
	field      *gf.Field
	n          int      // natural length 2^m - 1
	t          int      // correction capability
	dataBits   int      // shortened data length
	parityBits int      // degree of the generator polynomial
	gen        []uint64 // generator polynomial, bit i = coeff of x^i
}

// New constructs a t-error-correcting BCH code over GF(2^m) shortened to
// dataBits of payload. The natural code length is 2^m-1; dataBits plus the
// generator degree must fit inside it.
func New(m, t, dataBits int) (*Code, error) {
	if t < 1 {
		return nil, fmt.Errorf("bch: correction capability t=%d must be >= 1", t)
	}
	if dataBits < 1 {
		return nil, fmt.Errorf("bch: dataBits=%d must be >= 1", dataBits)
	}
	field, err := gf.NewField(m)
	if err != nil {
		return nil, fmt.Errorf("bch: %w", err)
	}
	c := &Code{field: field, n: field.Order(), t: t}
	gen, err := c.buildGenerator()
	if err != nil {
		return nil, err
	}
	c.gen = gen
	c.parityBits = polyDegree(gen)
	if c.parityBits <= 0 {
		return nil, fmt.Errorf("bch: degenerate generator polynomial")
	}
	c.dataBits = dataBits
	if dataBits+c.parityBits > c.n {
		return nil, fmt.Errorf("bch: dataBits=%d + parity=%d exceeds natural length %d",
			dataBits, c.parityBits, c.n)
	}
	return c, nil
}

// buildGenerator computes g(x) = lcm of the minimal polynomials of
// alpha^1 .. alpha^2t. Only odd exponents contribute distinct cosets.
func (c *Code) buildGenerator() ([]uint64, error) {
	seen := map[int]bool{}
	gen := []uint64{1} // polynomial "1"
	for i := 1; i <= 2*c.t; i++ {
		coset := c.field.CyclotomicCoset(i)
		rep := coset[0]
		for _, e := range coset {
			if e < rep {
				rep = e
			}
		}
		if seen[rep] {
			continue
		}
		seen[rep] = true
		mp := c.field.MinPolynomial(rep)
		if mp == 0 {
			return nil, fmt.Errorf("bch: failed to build minimal polynomial of alpha^%d", rep)
		}
		gen = polyMulGF2(gen, mp)
	}
	return gen, nil
}

// Geometry accessors.

// DataBits returns the payload size in bits.
func (c *Code) DataBits() int { return c.dataBits }

// ParityBits returns the number of check bits per codeword.
func (c *Code) ParityBits() int { return c.parityBits }

// CorrectCapability returns t, the guaranteed correctable error count.
func (c *Code) CorrectCapability() int { return c.t }

// DetectCapability returns the error count through which the paper treats
// the code as a reliable detector: the designed distance minus one would be
// 2t, but ReadDuo counts the full 2t+1 reach of BCH-8 ("9 to 17 errors" are
// re-read with M-sensing). We expose the paper's figure.
func (c *Code) DetectCapability() int { return 2*c.t + 1 }

// DataBytes and ParityBytes are the buffer sizes Encode/Decode expect.
func (c *Code) DataBytes() int   { return (c.dataBits + 7) / 8 }
func (c *Code) ParityBytes() int { return (c.parityBits + 7) / 8 }

// Encode computes the parity for data (little-endian bit order within each
// byte; trailing pad bits of the final byte must be zero).
func (c *Code) Encode(data []byte) ([]byte, error) {
	if len(data) != c.DataBytes() {
		return nil, fmt.Errorf("%w: data %dB, want %dB", ErrBadLength, len(data), c.DataBytes())
	}
	// Systematic encoding: remainder of x^parity * d(x) modulo g(x),
	// computed with the standard LFSR: consume data bits from the highest
	// codeword position downward.
	words := (c.parityBits + 63) / 64
	rem := make([]uint64, words)
	topBit := (c.parityBits - 1) % 64
	topWord := words - 1
	genLow := genWithoutTop(c.gen, c.parityBits)
	for i := c.dataBits - 1; i >= 0; i-- {
		feedback := getBit(data, i) ^ uint8(rem[topWord]>>topBit&1)
		shiftLeft1(rem, c.parityBits)
		if feedback != 0 {
			for w := range rem {
				rem[w] ^= genLow[w]
			}
		}
	}
	parity := make([]byte, c.ParityBytes())
	for i := 0; i < c.parityBits; i++ {
		if rem[i/64]>>(i%64)&1 != 0 {
			setBit(parity, i)
		}
	}
	return parity, nil
}

// Decode checks data against parity and corrects up to t bit errors in
// place (in both buffers). It returns the decode Result; buffers are only
// modified when Status == StatusCorrected.
func (c *Code) Decode(data, parity []byte) (Result, error) {
	if len(data) != c.DataBytes() || len(parity) != c.ParityBytes() {
		return Result{}, fmt.Errorf("%w: data %dB parity %dB, want %dB/%dB",
			ErrBadLength, len(data), len(parity), c.DataBytes(), c.ParityBytes())
	}
	synd := c.syndromes(data, parity)
	allZero := true
	for _, s := range synd {
		if s != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return Result{Status: StatusClean}, nil
	}
	sigma := c.berlekampMassey(synd)
	deg := len(sigma) - 1
	if deg < 1 || deg > c.t {
		return Result{Status: StatusUncorrectable}, nil
	}
	positions := c.chienSearch(sigma)
	if len(positions) != deg {
		return Result{Status: StatusUncorrectable}, nil
	}
	for _, pos := range positions {
		if pos < c.parityBits {
			flipBit(parity, pos)
		} else {
			flipBit(data, pos-c.parityBits)
		}
	}
	return Result{Status: StatusCorrected, CorrectedBits: positions}, nil
}

// syndromes returns S_1..S_2t of the received word. Codeword position p
// (parity bits at 0..parityBits-1, then data bits) corresponds to the
// coefficient of x^p, so S_j = sum over set positions of alpha^(p*j).
func (c *Code) syndromes(data, parity []byte) []uint32 {
	synd := make([]uint32, 2*c.t)
	addPos := func(p int) {
		for j := range synd {
			synd[j] ^= c.field.Exp(p * (j + 1))
		}
	}
	for i := 0; i < c.parityBits; i++ {
		if getBit(parity, i) != 0 {
			addPos(i)
		}
	}
	for i := 0; i < c.dataBits; i++ {
		if getBit(data, i) != 0 {
			addPos(c.parityBits + i)
		}
	}
	return synd
}

// berlekampMassey returns the error-locator polynomial sigma (sigma[0]=1)
// for the given syndrome sequence.
func (c *Code) berlekampMassey(synd []uint32) []uint32 {
	f := c.field
	sigma := []uint32{1}
	prev := []uint32{1}
	var l int        // current LFSR length
	var mShift = 1   // steps since last update of prev
	var b uint32 = 1 // discrepancy at last length change
	for i := 0; i < len(synd); i++ {
		// Compute discrepancy d = S_i + sum sigma[j] * S_{i-j}.
		d := synd[i]
		for j := 1; j <= l && j < len(sigma); j++ {
			d ^= f.Mul(sigma[j], synd[i-j])
		}
		if d == 0 {
			mShift++
			continue
		}
		// sigma' = sigma - (d/b) x^mShift * prev
		scale, err := f.Div(d, b)
		if err != nil {
			// b is never zero by construction; fail closed.
			return []uint32{1}
		}
		next := make([]uint32, max(len(sigma), len(prev)+mShift))
		copy(next, sigma)
		for j, pc := range prev {
			next[j+mShift] ^= f.Mul(scale, pc)
		}
		if 2*l <= i {
			prev = append([]uint32(nil), sigma...)
			l = i + 1 - l
			b = d
			mShift = 1
		} else {
			mShift++
		}
		sigma = next
	}
	return trimPoly(sigma)
}

// chienSearch finds codeword positions whose field locators are roots of
// sigma: position p is in error iff sigma(alpha^{-p}) == 0. Only positions
// inside the (possibly shortened) codeword are returned; roots landing in
// the shortened region make the pattern uncorrectable, which the caller
// detects by the root-count mismatch.
func (c *Code) chienSearch(sigma []uint32) []int {
	f := c.field
	used := c.parityBits + c.dataBits
	var positions []int
	for p := 0; p < used; p++ {
		x := f.Exp(-p)
		var val uint32
		for d := len(sigma) - 1; d >= 0; d-- {
			val = f.Mul(val, x) ^ sigma[d]
		}
		if val == 0 {
			positions = append(positions, p)
			if len(positions) == len(sigma)-1 {
				break
			}
		}
	}
	return positions
}
