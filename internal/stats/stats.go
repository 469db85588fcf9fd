// Package stats collects the statistical machinery the paper's analysis
// rests on: summary statistics, empirical CDFs and quantiles, the
// variance–time relation and Hurst estimation behind Equations (4)–(5),
// linear regression, relative-error metrics, and Pathload's PCT/PDT
// one-way-delay trend tests (the "increasing OWDs ≠ Ro < Ri" fallacy).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance, or NaN for fewer than
// two values.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the extrema of xs; it panics on an empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// RelativeError returns (estimate − truth)/truth, the paper's ε metric.
// It panics when truth is zero because ε is then undefined.
func RelativeError(estimate, truth float64) float64 {
	if truth == 0 {
		panic("stats: relative error with zero ground truth")
	}
	return (estimate - truth) / truth
}

// Median returns the middle value of xs — the mean of the two middle
// values for even lengths — or NaN for an empty slice. This is the one
// canonical median every consumer uses (the trend test's group
// reduction, pathChirp's jitter threshold, the probe feature
// extractor); it is deliberately the same algorithm as the trend
// test's internal median so the two can never drift.
func Median(xs []float64) float64 { return median(xs) }

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF copies and sorts the sample. An empty sample is allowed; all
// queries on it return NaN.
func NewCDF(sample []float64) *CDF {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// P returns the empirical probability P(X <= x).
func (c *CDF) P(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th empirical quantile, q in [0, 1],
// interpolating linearly between the order statistics either side of
// q·(n−1).
func (c *CDF) Quantile(q float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.sorted[lo]
	}
	frac := pos - float64(lo)
	return c.sorted[lo]*(1-frac) + c.sorted[hi]*frac
}

// Points returns (x, P(X<=x)) pairs suitable for plotting the CDF as the
// paper's Figure 1 does.
func (c *CDF) Points() (xs, ps []float64) {
	n := len(c.sorted)
	xs = append([]float64(nil), c.sorted...)
	ps = make([]float64, n)
	for i := range ps {
		ps[i] = float64(i+1) / float64(n)
	}
	return xs, ps
}

// LinearFit fits y = a + b·x by least squares and returns the intercept,
// slope, and R². It requires at least two points with non-constant x.
func LinearFit(x, y []float64) (a, b, r2 float64, err error) {
	if len(x) != len(y) {
		return 0, 0, 0, fmt.Errorf("stats: mismatched lengths %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, 0, 0, fmt.Errorf("stats: linear fit needs at least 2 points")
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, 0, fmt.Errorf("stats: constant x, slope undefined")
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		r2 = 1
	} else {
		var ssRes float64
		for i := range x {
			d := y[i] - (a + b*x[i])
			ssRes += d * d
		}
		r2 = 1 - ssRes/ssTot
	}
	return a, b, r2, nil
}

// Aggregate returns the k-aggregated series: consecutive blocks of k
// values replaced by their mean. The tail that does not fill a block is
// dropped. This is the operator in the paper's Equations (4)–(5).
func Aggregate(xs []float64, k int) []float64 {
	if k <= 0 {
		panic(fmt.Sprintf("stats: aggregation level %d must be positive", k))
	}
	n := len(xs) / k
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < k; j++ {
			s += xs[i*k+j]
		}
		out[i] = s / float64(k)
	}
	return out
}

// HurstVT estimates the Hurst parameter from the variance–time plot:
// Var[X^(k)] ~ k^{2H-2}, so the log-log slope β gives H = 1 + β/2.
func HurstVT(xs []float64, ks []int) (float64, error) {
	if len(ks) < 2 {
		return 0, fmt.Errorf("stats: Hurst estimation needs at least 2 aggregation levels")
	}
	lx := make([]float64, 0, len(ks))
	ly := make([]float64, 0, len(ks))
	for _, k := range ks {
		v := Variance(Aggregate(xs, k))
		if !(v > 0) || math.IsNaN(v) {
			continue
		}
		lx = append(lx, math.Log(float64(k)))
		ly = append(ly, math.Log(v))
	}
	if len(lx) < 2 {
		return 0, fmt.Errorf("stats: too few valid variance points")
	}
	_, slope, _, err := LinearFit(lx, ly)
	if err != nil {
		return 0, err
	}
	h := 1 + slope/2
	if h < 0 {
		h = 0
	}
	if h > 1 {
		h = 1
	}
	return h, nil
}
