// Package pathload implements Pathload (Jain & Dovrolis, ToN 2003), the
// iterative prober written by the paper's authors and the reference point
// for several of its clarifications:
//
//   - the probing rate moves in a binary-search pattern rather than
//     linearly (contrast with TOPP);
//   - the Ri-vs-A comparison comes from statistical analysis of the
//     one-way-delay trend (PCT/PDT), not from the Ro/Ri ratio — which is
//     exactly the paper's Figure 5 fallacy;
//   - the output is a variation range [R_L, R_H] of the avail-bw process
//     at the probing timescale, not a single number — the paper's
//     Figure 6 fallacy — and that range is not a confidence interval.
//
// Published defaults (Defaults): K = 100-packet streams of 1500 B
// packets (Pathload adapts the packet size to the rate; this
// reproduction keeps it fixed), fleets of N = 6 streams per rate
// (Repeat), and at most 24 rounds of binary search (MaxRounds). Without
// RateLo/RateHi the search brackets 1/25 to 49/50 of Capacity.
package pathload

import (
	"fmt"

	"abw/internal/core"
	"abw/internal/probe"
	"abw/internal/stats"
	"abw/internal/unit"
)

// Defaults returns Pathload's published settings.
func Defaults() core.Params {
	return core.Params{PktSize: 1500, StreamLen: 100, Repeat: 6, MaxRounds: 24}
}

// A fleet is above A when at least increasingFraction of its streams
// show an increasing OWD trend (stats.OWDTrend, at Pathload's PCT/PDT
// thresholds), below A when at most nonIncreasingFraction do, and
// otherwise inside the grey (variation) region.
const increasingFraction, nonIncreasingFraction = 0.7, 0.3

// resolutionSteps sets the resolution ω: the search stops once
// High−Low ≤ (maxRate−minRate)/resolutionSteps.
const resolutionSteps = 20

// Estimator is the Pathload iterative prober.
type Estimator struct {
	minRate, maxRate unit.Rate // bracket of the initial binary search
	streamLen        int       // packets per stream
	streamsPerRate   int       // fleet size per probing rate
	pktSize          unit.Bytes
	maxRounds        int // bound on the binary search
}

// New validates p, with zero fields taken from Defaults, and returns
// the estimator.
func New(p core.Params) (*Estimator, error) {
	p = p.WithDefaults(Defaults())
	lo, hi, err := p.Bracket(1, 25, 49, 50)
	if err != nil {
		return nil, fmt.Errorf("pathload: %w", err)
	}
	if p.StreamLen < 10 {
		return nil, fmt.Errorf("pathload: stream length %d too short for trend analysis", p.StreamLen)
	}
	if p.Repeat < 1 {
		return nil, fmt.Errorf("pathload: fleet size must be positive")
	}
	if p.MaxRounds < 1 {
		return nil, fmt.Errorf("pathload: MaxRounds must be positive")
	}
	return &Estimator{
		minRate: lo, maxRate: hi,
		streamLen: p.StreamLen, streamsPerRate: p.Repeat,
		pktSize: p.PktSize, maxRounds: p.MaxRounds,
	}, nil
}

// verdict classifies a fleet of streams at one rate.
type verdict int

const (
	above verdict = iota // rate > avail-bw region
	below                // rate < avail-bw region
	grey                 // rate inside the variation range
)

// Estimate implements core.Estimator: binary search on the probing rate,
// classifying each rate by the fraction of its fleet showing increasing
// OWD trends, and reporting the bracketed variation range.
func (e *Estimator) Estimate(t core.Transport) (*core.Report, error) {
	lo, hi := e.minRate, e.maxRate
	// greyLo/greyHi track the widest rate span classified as grey: the
	// estimated variation range of the avail-bw process at timescale τ.
	var greyLo, greyHi unit.Rate

	classify := func(rate unit.Rate) (verdict, error) {
		increasing := 0
		usable := 0
		for i := 0; i < e.streamsPerRate; i++ {
			spec := probe.Periodic(rate, e.pktSize, e.streamLen)
			rec, err := t.Probe(spec)
			if err != nil {
				return grey, err
			}
			vals := rec.OWDSeconds()
			if len(vals) < e.streamLen/2 {
				continue // too lossy to analyze
			}
			usable++
			if stats.OWDTrend(vals).Verdict == stats.TrendIncreasing {
				increasing++
			}
		}
		if usable == 0 {
			// Total loss at this rate: the path cannot carry it.
			return above, nil
		}
		frac := float64(increasing) / float64(usable)
		switch {
		case frac >= increasingFraction:
			return above, nil
		case frac <= nonIncreasingFraction:
			return below, nil
		default:
			return grey, nil
		}
	}

	resolution := (e.maxRate - e.minRate) / resolutionSteps
	for round := 0; round < e.maxRounds && hi-lo > resolution; round++ {
		mid := (lo + hi) / 2
		v, err := classify(mid)
		if err != nil {
			return nil, fmt.Errorf("pathload: %w", err)
		}
		switch v {
		case above:
			hi = mid
		case below:
			lo = mid
		case grey:
			if greyLo == 0 || mid < greyLo {
				greyLo = mid
			}
			if mid > greyHi {
				greyHi = mid
			}
			// Pathload narrows both ends toward the grey region: probe
			// the halves on each side next by shrinking the bracket
			// around the grey rate.
			if mid-lo > hi-mid {
				lo = lo + (mid-lo)/2
			} else {
				hi = hi - (hi-mid)/2
			}
		}
	}
	low, high := lo, hi
	if greyLo > 0 && greyLo < low {
		low = greyLo
	}
	if greyHi > high {
		high = greyHi
	}
	return &core.Report{Point: (low + high) / 2, Low: low, High: high}, nil
}

var _ core.Estimator = (*Estimator)(nil)
