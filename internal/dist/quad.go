package dist

import (
	"math"
	"sync"
)

// glRule holds the nodes and weights of an n-point Gauss-Legendre rule on
// [-1, 1].
type glRule struct {
	nodes   []float64
	weights []float64
}

var (
	glMu    sync.Mutex
	glCache = map[int]*glRule{}
)

// gaussLegendreRule returns (computing and caching on first use) the n-point
// Gauss-Legendre rule. Nodes are roots of the Legendre polynomial P_n found
// by Newton iteration from the Chebyshev-like initial guess; weights are
// 2 / ((1-x^2) P_n'(x)^2). This avoids hard-coding tables of constants.
func gaussLegendreRule(n int) *glRule {
	glMu.Lock()
	defer glMu.Unlock()
	if r, ok := glCache[n]; ok {
		return r
	}
	r := &glRule{nodes: make([]float64, n), weights: make([]float64, n)}
	m := (n + 1) / 2
	for i := 0; i < m; i++ {
		// Initial guess for the i-th root (Abramowitz & Stegun 22.16.6).
		x := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var dp float64
		for iter := 0; iter < 100; iter++ {
			p0, p1 := 1.0, x
			for k := 2; k <= n; k++ {
				p0, p1 = p1, ((2*float64(k)-1)*x*p1-(float64(k)-1)*p0)/float64(k)
			}
			// Derivative via the recurrence P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1).
			dp = float64(n) * (x*p1 - p0) / (x*x - 1)
			dx := p1 / dp
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		w := 2 / ((1 - x*x) * dp * dp)
		r.nodes[i] = -x
		r.weights[i] = w
		r.nodes[n-1-i] = x
		r.weights[n-1-i] = w
	}
	glCache[n] = r
	return r
}

// GaussLegendreRule returns the nodes and weights on [-1, 1] of the
// n-point rule GaussLegendre sums over, for callers that map the nodes
// once and evaluate an integrand at them many times. The slices are
// shared by every caller and must not be modified.
func GaussLegendreRule(n int) (nodes, weights []float64) {
	r := gaussLegendreRule(n)
	return r.nodes, r.weights
}

// GaussLegendre integrates f over [a, b] with an n-point Gauss-Legendre
// rule. The drift-crossing integrands in this repo are smooth products of a
// Gaussian density and a Gaussian tail, for which n around 100-200 reaches
// ~1e-12 relative accuracy.
func GaussLegendre(f func(float64) float64, a, b float64, n int) float64 {
	if b <= a || n < 1 {
		return 0
	}
	r := gaussLegendreRule(n)
	mid := (a + b) / 2
	half := (b - a) / 2
	var sum float64
	for i, x := range r.nodes {
		sum += r.weights[i] * f(mid+half*x)
	}
	return sum * half
}

// Bisect finds x in [lo, hi] with f(x) ~ 0 for a monotone f, to absolute
// tolerance tol. It assumes f(lo) and f(hi) bracket a root; if they do not,
// it returns the endpoint with the smaller |f|.
func Bisect(f func(float64) float64, lo, hi, tol float64) float64 {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo
	}
	if fhi == 0 {
		return hi
	}
	if (flo > 0) == (fhi > 0) {
		if math.Abs(flo) < math.Abs(fhi) {
			return lo
		}
		return hi
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		fm := f(mid)
		if fm == 0 {
			return mid
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
