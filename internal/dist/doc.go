// Package dist provides the probability and numerical machinery underlying
// the ReadDuo reliability analysis: normal and truncated-normal
// distributions, Gauss-Legendre quadrature, log-space binomial and
// multinomial tail probabilities, and the SplitMix64 mixer every
// deterministic seed derivation and line hash shares.
//
// The line-error-rate tables in the paper (Tables III-V) require evaluating
// probabilities as small as 1e-50; all tail computations therefore work in
// log space and only exponentiate at the very end.
package dist
