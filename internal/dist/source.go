package dist

import (
	"math/rand"
	"reflect"
)

// Source is math/rand's default source (the one rand.NewSource returns),
// reimplemented so that seeding it is cheap. After Seed(s) it yields
// exactly the values rand.NewSource(s) yields, draw for draw, through
// every rand.Rand method; only the cost of Seed differs.
//
// math/rand's seeding walks a serial Lehmer chain, x ← 48271·x mod
// (2³¹−1), 1,841 steps long, in Schrage's form. Every step multiplies by
// 48271, so the k-th value of the chain is x₀·48271^k mod (2³¹−1), and
// state word i takes the values k = 21+3i, 22+3i and 23+3i. Seed reads
// those powers from a table built once and multiplies each by x₀ on its
// own: 1,821 independent products instead of one dependent chain. A
// product of two values below 2³¹ fits in 62 bits and reduces modulo
// the Mersenne prime 2³¹−1 by folding its high bits onto its low bits,
// which lands on the residue Schrage's method computes, so the state
// words are equal bit for bit.
//
// A Source holds the same 4.9 KB of state as math/rand's. The zero
// Source draws only zeros; Seed it first. It is not safe for concurrent
// use; Seed reads only tables that are fixed after package init, so
// distinct Sources may be seeded concurrently.
type Source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// The additive lagged Fibonacci generator's shape and the seeding chain's
// constants, as in math/rand.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lehmerM  = 1<<31 - 1 // the Mersenne prime 2³¹−1
	lehmerA  = 48271
	lehmerX0 = 89482311 // the chain's start for a seed ≡ 0 (mod 2³¹−1)
	// lehmerSkip is how many chain values math/rand discards before
	// state word 0.
	lehmerSkip = 20
)

var (
	// lehmerPow[i] holds 48271^(21+3i), 48271^(22+3i) and 48271^(23+3i)
	// mod 2³¹−1: the multipliers of state word i's three chain values.
	lehmerPow [rngLen][3]uint64
	// rngCooked is math/rand's unexported table of the same name: the
	// constants each seeded state word is XORed with.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 0; k < lehmerSkip; k++ {
		p = mulModM(p, lehmerA)
	}
	for i := range lehmerPow {
		for j := range lehmerPow[i] {
			p = mulModM(p, lehmerA)
			lehmerPow[i][j] = p
		}
	}
	rngCooked = deriveCooked()
}

// deriveCooked recovers math/rand's rngCooked from one seeded math/rand
// source, whose state it reads through reflect: state word i is the
// same seed's Lehmer word XORed with rngCooked[i]. It panics if the
// unexported field it reads is not there.
func deriveCooked() [rngLen]int64 {
	vec := reflect.ValueOf(rand.NewSource(1)).Elem().FieldByName("vec")
	if vec.Kind() != reflect.Array || vec.Len() != rngLen || vec.Type().Elem().Kind() != reflect.Int64 {
		panic("dist: math/rand's source has no vec [607]int64 field; Source cannot derive rngCooked from it")
	}
	// rngCooked is still zero here, so Seed leaves the bare Lehmer words.
	var lehmer Source
	lehmer.Seed(1)
	var cooked [rngLen]int64
	for i := range cooked {
		cooked[i] = vec.Index(i).Int() ^ lehmer.vec[i]
	}
	return cooked
}

// mulModM returns a·b mod 2³¹−1 for a, b < 2³¹−1. Since 2³¹ ≡ 1, a
// product's high and low 31-bit halves add to the same residue; two folds
// bring the sum below 2³¹−1. The result is never 0 or 2³¹−1 for nonzero
// a and b, because 2³¹−1 is prime.
func mulModM(a, b uint64) uint64 {
	p := a * b
	p = p&lehmerM + p>>31
	return p&lehmerM + p>>31
}

// Seed restarts s as rand.NewSource(seed).
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seedWords(&s.vec, chainStart(seed), 0, rngLen)
}

// chainStart returns the first value of seed's Lehmer chain, as
// math/rand's seeding reduces it.
func chainStart(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = lehmerX0
	}
	return uint64(seed)
}

// seedWords writes state words [lo, hi) of the source whose chain starts
// at x0 into vec.
func seedWords(vec *[rngLen]int64, x0 uint64, lo, hi int) {
	for i := lo; i < hi; i++ {
		w := &lehmerPow[i]
		a, b, c := mulModM(x0, w[0]), mulModM(x0, w[1]), mulModM(x0, w[2])
		vec[i] = int64(a<<40^b<<20^c) ^ rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// lazySource is Source with its seeding spread over its first draws:
// Seed only records the chain start, and a state word is computed the
// first time a draw reaches it. Until the feed cursor wraps, draw k
// (from 1) adds tap word 607−k into feed word 334−k, so both cursors
// walk down together, 273 words apart, from words 606 and 333. Each
// time the feed cursor drops below what is computed, grow computes the
// next lazyChunk feed words and the tap words 273 above them, so a
// stream that takes n < 334 values seeds about 2n words instead of
// 607, and one that takes 334 or more has seeded every word, in the
// same values Source.Seed writes.
//
// The trace seed memo keeps the eager Source: a memo entry is copied on
// every hit, and a copy of a lazy source would redo its seeding.
type lazySource struct {
	tap  int
	feed int
	// lo is the lowest feed word computed since Seed. Words [lo, 334)
	// are computed, and so are tap words from lo+273 up; every word is
	// once lo is 0.
	lo  int
	x0  uint64
	vec [rngLen]int64
}

// lazyChunk is how many feed words grow computes at a time.
const lazyChunk = 32

func (s *lazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.lo = rngLen - rngTap
	s.x0 = chainStart(seed)
}

// grow computes the next lazyChunk feed words below lo and the tap words
// rngTap above them. Tap words below 334 lie in the feed region, which
// the feed cursor has already computed and drawn into.
func (s *lazySource) grow() {
	lo := max(s.lo-lazyChunk, 0)
	seedWords(&s.vec, s.x0, lo, s.lo)
	seedWords(&s.vec, s.x0, max(lo+rngTap, rngLen-rngTap), s.lo+rngTap)
	s.lo = lo
}

// Int63 and Uint64 each carry the draw: with its call to grow, the draw
// is too costly to inline, so an Int63 that called Uint64 would make a
// rand.Rand draw two calls.
func (s *lazySource) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.feed < s.lo {
		s.grow()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & rngMask
}

func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.feed < s.lo {
		s.grow()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// NewRand returns rand.New(rand.NewSource(seed)), draw for draw, over a
// source that seeds each state word the first time a draw reaches it.
// (*rand.Rand).Seed restarts it as cheaply, at any point in its stream.
func NewRand(seed int64) *rand.Rand {
	s := new(lazySource)
	s.Seed(seed)
	return rand.New(s)
}
