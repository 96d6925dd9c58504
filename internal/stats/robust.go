// Robust sample statistics for the performance-regression gate
// (internal/perfgate). The gate runs the parent's and the change's
// benchmark binaries in alternating pairs and judges the per-pair
// ratios. Timings on shared hosts are heavy-tailed — one page-cache miss
// or a noisy neighbour puts a far outlier in a five-pair set — so it
// works on medians and on a sign test, which counts pairs and ignores
// how far each one lies, instead of means, variances and t-tests.
package stats

import (
	"math"
	"sort"
)

// Median returns the middle value of xs (mean of the two middle values
// for even length). It copies and sorts; xs is not modified. Median of
// an empty slice is 0.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MAD returns the median absolute deviation of xs: median(|x - median|).
// It is the robust analogue of the standard deviation (a single far
// outlier in a five-sample set moves the MAD by at most one rank, where
// it can move the standard deviation arbitrarily). The value is the raw
// MAD, not the 1.4826-scaled normal-consistent estimator.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return Median(dev)
}

// SignTestTail returns the one-sided p-value of a sign test: the
// probability that k or more of n pairs fall on one side of the tested
// value when, under H0, each pair is equally likely to fall on either
// side, i.e. P(X >= k) for X ~ Binomial(n, 1/2). It is exact (the
// binomial coefficients are integers below 2^53) for n up to 50; k <= 0
// gives 1 and k > n gives 0.
func SignTestTail(k, n int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	var tail float64
	c := 1.0 // C(n, j), starting at j = 0
	for j := 0; j <= n; j++ {
		if j >= k {
			tail += c
		}
		c = c * float64(n-j) / float64(j+1)
	}
	return math.Ldexp(tail, -n)
}
