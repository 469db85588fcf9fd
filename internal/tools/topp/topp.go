// Package topp implements TOPP — Trains Of Packet Pairs (Melander,
// Björkman & Gunningberg, Global Internet 2000) — the canonical iterative
// prober. The offered rate increases linearly across probing rounds; each
// round sends many packet pairs at that rate and measures the average
// ratio Ri/Ro. In the fluid model,
//
//	Ri/Ro = Ri/C_t + (C_t − A)/C_t    for Ri > A,
//	Ri/Ro = 1                          for Ri ≤ A,
//
// so TOPP both locates the knee (the avail-bw) and recovers the tight
// link capacity from the slope of the overloaded segment — the feature
// the paper highlights in its classification.
//
// Published defaults (Defaults): 40 packet pairs of 1500 B packets per
// probing rate (Repeat). Without RateLo/RateHi the sweep spans 1/10 to
// 9/10 of Capacity.
package topp

import (
	"fmt"
	"time"

	"abw/internal/core"
	"abw/internal/probe"
	"abw/internal/stats"
	"abw/internal/unit"
)

// Defaults returns TOPP's published settings.
func Defaults() core.Params {
	return core.Params{PktSize: 1500, Repeat: 40}
}

// sweepSteps sets the sweep's rate step: (maxRate−minRate)/sweepSteps
// per round, so the sweep probes sweepSteps+1 rates.
const sweepSteps = 15

// Estimator is the TOPP iterative prober.
type Estimator struct {
	minRate, maxRate unit.Rate // bounds of the linear sweep
	pairsPerRate     int       // packet pairs per probing round
	pktSize          unit.Bytes
}

// New validates p, with zero fields taken from Defaults, and returns
// the estimator.
func New(p core.Params) (*Estimator, error) {
	p = p.WithDefaults(Defaults())
	lo, hi, err := p.Bracket(1, 10, 9, 10)
	if err != nil {
		return nil, fmt.Errorf("topp: %w", err)
	}
	if p.Repeat < 1 {
		return nil, fmt.Errorf("topp: pairs per rate must be positive")
	}
	return &Estimator{minRate: lo, maxRate: hi, pairsPerRate: p.Repeat, pktSize: p.PktSize}, nil
}

// roundResult is one probing round of the sweep.
type roundResult struct {
	ri    unit.Rate
	ratio float64 // mean Ri/Ro over the round's pairs
}

// Estimate implements core.Estimator: linear sweep, then knee location
// by a piecewise fit (flat below the knee, linear above — the shape
// the fluid model predicts) plus segment regression for the capacity
// estimate. The piecewise fit is what makes the tool usable under real
// cross traffic, where individual pair ratios are heavily quantized by
// discrete cross packets (the paper's fourth misconception describes
// exactly this noise).
func (e *Estimator) Estimate(t core.Transport) (*core.Report, error) {
	var rounds []roundResult
	step := (e.maxRate - e.minRate) / sweepSteps
	for ri := e.minRate; ri <= e.maxRate+step/2; ri += step {
		// A round is a train of pairs: pairs back-to-back internally at
		// ri, separated widely enough not to build standing queues.
		spec, err := pairTrain(ri, e.pktSize, e.pairsPerRate)
		if err != nil {
			return nil, fmt.Errorf("topp: %w", err)
		}
		rec, err := t.Probe(spec)
		if err != nil {
			return nil, fmt.Errorf("topp: %w", err)
		}
		// Round ratio from summed gaps: Σgout/Σgin is far less noisy
		// than the mean of per-pair ratios under quantized cross
		// traffic.
		var gin, gout time.Duration
		for k := 0; k < e.pairsPerRate; k++ {
			pin, pout, ok := rec.PairGaps(2 * k)
			if !ok {
				continue
			}
			gin += pin
			gout += pout
		}
		if gin <= 0 {
			continue
		}
		rounds = append(rounds, roundResult{ri: ri, ratio: float64(gout) / float64(gin)})
	}
	if len(rounds) < 3 {
		return nil, fmt.Errorf("topp: too few measurable rounds (%d)", len(rounds))
	}
	knee := kneeIndex(rounds)
	point := rounds[knee].ri
	// Capacity from regression over the overloaded segment:
	// Ri/Ro = Ri/C_t + (C_t−A)/C_t → slope = 1/C_t.
	var capEst, regPoint unit.Rate
	var xs, ys []float64
	for _, r := range rounds[knee+1:] {
		xs = append(xs, float64(r.ri))
		ys = append(ys, r.ratio)
	}
	if len(xs) >= 3 {
		if intercept, slope, r2, err := stats.LinearFit(xs, ys); err == nil && slope > 0 && r2 > 0.5 {
			capEst = unit.Rate(1 / slope)
			// A = C_t(1 − intercept): refine the knee estimate with the
			// regression when it is credible.
			a := unit.Rate(float64(capEst) * (1 - intercept))
			if a > 0 && a < capEst {
				regPoint = a
			}
		}
	}
	low, high := point, point
	if regPoint > 0 {
		// Blend: keep the sweep knee as the range anchor, report the
		// regression refinement as the point estimate.
		if regPoint < low {
			low = regPoint
		}
		if regPoint > high {
			high = regPoint
		}
		point = regPoint
	}
	return &core.Report{Point: point, Low: low, High: high, Capacity: capEst}, nil
}

// kneeIndex fits the fluid response shape — flat for rates up to the
// knee, a straight line beyond — for every candidate knee and returns
// the one with the least squared error. The flat level is a free
// parameter (the segment mean) rather than the fluid model's 1.0: under
// real cross traffic, pair dispersion has a burstiness-induced baseline
// expansion even below the avail-bw (the effect the paper's Figure 3
// documents), and anchoring at 1.0 would push the knee to zero.
func kneeIndex(rounds []roundResult) int {
	n := len(rounds)
	best, bestCost := 0, 0.0
	for j := 0; j < n; j++ {
		cost := 0.0
		flat := stats.Mean(ratios(rounds[:j+1]))
		for i := 0; i <= j; i++ {
			d := rounds[i].ratio - flat
			cost += d * d
		}
		over := rounds[j+1:]
		switch {
		case len(over) >= 3:
			xs := make([]float64, len(over))
			ys := make([]float64, len(over))
			for i, r := range over {
				xs[i] = float64(r.ri)
				ys[i] = r.ratio
			}
			if a, b, _, err := stats.LinearFit(xs, ys); err == nil && b > 0 {
				for i := range xs {
					d := ys[i] - (a + b*xs[i])
					cost += d * d
				}
			} else {
				// A non-increasing "overload" segment is implausible;
				// penalize with deviation from its own mean.
				m := stats.Mean(ys)
				for _, y := range ys {
					cost += (y - m) * (y - m)
				}
			}
		case len(over) > 0:
			m := stats.Mean(ratios(over))
			for _, r := range over {
				cost += (r.ratio - m) * (r.ratio - m)
			}
		}
		if j == 0 || cost < bestCost {
			best, bestCost = j, cost
		}
	}
	return best
}

func ratios(rs []roundResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.ratio
	}
	return out
}

// pairTrain builds a stream of n pairs at internal rate ri with relaxed
// inter-pair spacing (8 packet times), matching TOPP's probing pattern:
// pairs probe the instantaneous rate while the train's average load stays
// well below it.
func pairTrain(ri unit.Rate, size unit.Bytes, n int) (probe.StreamSpec, error) {
	if n < 1 {
		return probe.StreamSpec{}, fmt.Errorf("topp: empty pair train")
	}
	intra := unit.GapFor(size, ri)
	inter := 8 * intra
	gaps := make([]time.Duration, 0, 2*n-1)
	for k := 0; k < n; k++ {
		if k > 0 {
			gaps = append(gaps, inter)
		}
		gaps = append(gaps, intra)
	}
	return probe.StreamSpec{PktSize: size, Count: 2 * n, Gaps: gaps}, nil
}

var _ core.Estimator = (*Estimator)(nil)
