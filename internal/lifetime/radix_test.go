package lifetime

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortInput is one population sortLifetimes is checked on.
type sortInput struct {
	name   string
	values []float64
}

// sortInputs builds every population sortLifetimes is checked on, each
// n values long.
func sortInputs(n int, rng *rand.Rand) []sortInput {
	var in []sortInput
	fill := func(name string, f func() float64) {
		a := make([]float64, n)
		for i := range a {
			a[i] = f()
		}
		in = append(in, sortInput{name, a})
	}
	fill("lognormal", func() float64 {
		return 1e8 * math.Exp(0.25*rng.NormFloat64()) / 1e-3
	})
	fill("equal", func() float64 { return 1e11 })
	// Keys that agree on all but their low 7 bits fill 128 buckets of
	// the last digit with equal keys; a sort that finished such buckets
	// by insertion would go quadratic.
	fill("low-7-bits", func() float64 {
		return math.Float64frombits(math.Float64bits(1e11) | uint64(rng.Intn(128)))
	})
	fill("inf-subnormal", func() float64 {
		if rng.Intn(3) == 0 {
			return math.Inf(1)
		}
		return math.Float64frombits(1 + uint64(rng.Int63n(1<<52-1)))
	})
	fill("bits", func() float64 {
		for {
			if x := math.Float64frombits(rng.Uint64()); !math.IsNaN(x) && !math.IsInf(x, 0) {
				return x
			}
		}
	})
	return in
}

// TestSortLifetimesMatchesSlicesSort: sortLifetimes orders every input
// as slices.Sort does, at sizes around the insertion cut-off and up to
// a million values.
func TestSortLifetimesMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 257, 2000, 1_000_000} {
		for _, in := range sortInputs(n, rng) {
			got, want := in.values, slices.Clone(in.values)
			slices.Sort(want)
			sortLifetimes(got)
			for i := range got {
				// == so that -0 and +0, which slices.Sort may leave in
				// either order, match.
				if got[i] != want[i] {
					t.Fatalf("%s, n=%d: index %d holds %v, slices.Sort put %v there", in.name, n, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkSortLifetimes and BenchmarkSlicesSort sort the lifetimes of
// one /v1/mc-shaped study, 2,000 lognormal values, with sortLifetimes
// and with slices.Sort.
func BenchmarkSortLifetimes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := sortInputs(2000, rng)[0].values
	a := make([]float64, len(in))
	for i := 0; i < b.N; i++ {
		copy(a, in)
		sortLifetimes(a)
	}
}

func BenchmarkSlicesSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := sortInputs(2000, rng)[0].values
	a := make([]float64, len(in))
	for i := 0; i < b.N; i++ {
		copy(a, in)
		slices.Sort(a)
	}
}
