package stats

import (
	"math"
)

// This file implements Pathload's one-way-delay trend analysis: the
// Pairwise Comparison Test (PCT) and the Pairwise Difference Test (PDT),
// applied to the median-of-groups robustification described in Jain &
// Dovrolis (ToN 2003). The paper's Figure 5 fallacy — "increasing OWDs is
// equivalent to Ro < Ri" — is resolved exactly by these statistics: a
// late burst can depress the output rate without creating an increasing
// trend, and PCT/PDT see through it.

// Trend is the verdict of the OWD trend analysis.
type Trend int

// Trend verdicts.
const (
	TrendAmbiguous Trend = iota // metrics disagree or are in the gray zone
	TrendIncreasing
	TrendNonIncreasing
)

// String returns a short name for the verdict.
func (t Trend) String() string {
	switch t {
	case TrendIncreasing:
		return "increasing"
	case TrendNonIncreasing:
		return "non-increasing"
	default:
		return "ambiguous"
	}
}

// PCT returns the Pairwise Comparison Test statistic of xs: the fraction
// of consecutive pairs that strictly increase. An uncorrelated series
// gives ≈ 0.5; a strongly increasing one approaches 1.
func PCT(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	inc := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[i-1] {
			inc++
		}
	}
	return float64(inc) / float64(len(xs)-1)
}

// PDT returns the Pairwise Difference Test statistic:
// (x_n − x_1) / Σ|x_i − x_{i−1}|. It approaches 1 for a monotonically
// increasing series and 0 for a trendless one.
func PDT(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	var absSum float64
	for i := 1; i < len(xs); i++ {
		absSum += math.Abs(xs[i] - xs[i-1])
	}
	if absSum == 0 {
		return 0
	}
	return (xs[len(xs)-1] - xs[0]) / absSum
}

// Pathload's published PCT/PDT decision thresholds: a statistic above
// the first bound is increasing, one below the second non-increasing.
const (
	pctIncrease, pctNoIncrease = 0.66, 0.54
	pdtIncrease, pdtNoIncrease = 0.55, 0.45
)

// MedianGroups reduces xs to g group medians, Pathload's robustification
// against measurement noise before trend testing.
func MedianGroups(xs []float64, g int) []float64 {
	if g <= 0 || len(xs) == 0 {
		return nil
	}
	if g > len(xs) {
		g = len(xs)
	}
	size := len(xs) / g
	out := make([]float64, 0, g)
	for i := 0; i < g; i++ {
		lo := i * size
		hi := lo + size
		if i == g-1 {
			hi = len(xs)
		}
		out = append(out, median(xs[lo:hi]))
	}
	return out
}

func median(xs []float64) float64 {
	tmp := append([]float64(nil), xs...)
	n := len(tmp)
	if n == 0 {
		return math.NaN()
	}
	// Partial selection: full sort is fine at these sizes.
	quickMedianSort(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

func quickMedianSort(xs []float64) {
	// Insertion sort: groups are tiny (~sqrt of a 100-packet stream).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TrendResult carries the verdict together with the raw statistics so
// callers (and the Figure 5 experiment) can report them.
type TrendResult struct {
	Verdict Trend
	PCT     float64
	PDT     float64
}

// OWDTrend runs Pathload's trend analysis on a one-way-delay series,
// reduced first to √n median groups (at least 2).
func OWDTrend(owds []float64) TrendResult {
	g := int(math.Sqrt(float64(len(owds))))
	if g < 2 {
		g = 2
	}
	groups := MedianGroups(owds, g)
	pct := PCT(groups)
	pdt := PDT(groups)
	pctInc := pct > pctIncrease
	pctNon := pct < pctNoIncrease
	pdtInc := pdt > pdtIncrease
	pdtNon := pdt < pdtNoIncrease
	var v Trend
	switch {
	case pctInc && pdtInc:
		v = TrendIncreasing
	case pctNon && pdtNon:
		v = TrendNonIncreasing
	case pctInc || pdtInc:
		// One metric strongly indicates increase and the other is not
		// contradicting: Pathload treats this as increasing.
		if !pctNon && !pdtNon {
			v = TrendIncreasing
		} else {
			v = TrendAmbiguous
		}
	case pctNon || pdtNon:
		if !pctInc && !pdtInc {
			v = TrendNonIncreasing
		} else {
			v = TrendAmbiguous
		}
	default:
		v = TrendAmbiguous
	}
	return TrendResult{Verdict: v, PCT: pct, PDT: pdt}
}
