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
package pathload

import (
	"context"
	"fmt"

	"abw/internal/core"
	"abw/internal/probe"
	"abw/internal/stats"
	"abw/internal/unit"
)

// Config tunes the estimator.
type Config struct {
	// MinRate/MaxRate bracket the initial binary search (required).
	MinRate, MaxRate unit.Rate
	// StreamLen is packets per stream (default 100, Pathload's K).
	StreamLen int
	// StreamsPerRate is the fleet size N per probing rate (default 6).
	StreamsPerRate int
	// PktSize is the probe packet size (default 1500 B... Pathload
	// adapts L to the rate; this reproduction keeps it fixed).
	PktSize unit.Bytes
	// MaxRounds bounds the binary search (default 24).
	MaxRounds int
}

// A fleet is above A when at least increasingFraction of its streams
// show an increasing OWD trend (stats.OWDTrend, at Pathload's PCT/PDT
// thresholds), below A when at most nonIncreasingFraction do, and
// otherwise inside the grey (variation) region.
const increasingFraction, nonIncreasingFraction = 0.7, 0.3

// resolutionSteps sets the resolution ω: the search stops once
// High−Low ≤ (MaxRate−MinRate)/resolutionSteps.
const resolutionSteps = 20

func (c Config) withDefaults() (Config, error) {
	if c.MinRate <= 0 || c.MaxRate <= c.MinRate {
		return c, fmt.Errorf("pathload: need 0 < MinRate < MaxRate (got %v, %v)", c.MinRate, c.MaxRate)
	}
	if c.StreamLen == 0 {
		c.StreamLen = 100
	}
	if c.StreamLen < 10 {
		return c, fmt.Errorf("pathload: stream length %d too short for trend analysis", c.StreamLen)
	}
	if c.StreamsPerRate == 0 {
		c.StreamsPerRate = 6
	}
	if c.StreamsPerRate < 1 {
		return c, fmt.Errorf("pathload: fleet size must be positive")
	}
	if c.PktSize == 0 {
		c.PktSize = 1500
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 24
	}
	if c.MaxRounds < 1 {
		return c, fmt.Errorf("pathload: MaxRounds must be positive")
	}
	return c, nil
}

// Estimator is the Pathload iterative prober.
type Estimator struct {
	cfg Config
}

// New validates the configuration and returns the estimator.
func New(cfg Config) (*Estimator, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Estimator{cfg: c}, nil
}

// Name implements core.Estimator.
func (e *Estimator) Name() string { return "pathload" }

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
func (e *Estimator) Estimate(ctx context.Context, t core.Transport) (*core.Report, error) {
	c := e.cfg
	start := t.Now()
	lo, hi := c.MinRate, c.MaxRate
	// greyLo/greyHi track the widest rate span classified as grey: the
	// estimated variation range of the avail-bw process at timescale τ.
	var greyLo, greyHi unit.Rate
	var streams, packets int
	var bytes unit.Bytes

	classify := func(rate unit.Rate) (verdict, error) {
		increasing := 0
		usable := 0
		for i := 0; i < c.StreamsPerRate; i++ {
			spec := probe.Periodic(rate, c.PktSize, c.StreamLen)
			rec, err := core.Probe(ctx, t, spec)
			if err != nil {
				return grey, err
			}
			streams++
			packets += spec.Count
			bytes += spec.Bytes()
			vals := rec.OWDSeconds()
			if len(vals) < c.StreamLen/2 {
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

	resolution := (c.MaxRate - c.MinRate) / resolutionSteps
	for round := 0; round < c.MaxRounds && hi-lo > resolution; round++ {
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
	return &core.Report{
		Tool:       e.Name(),
		Point:      (low + high) / 2,
		Low:        low,
		High:       high,
		Streams:    streams,
		Packets:    packets,
		ProbeBytes: bytes,
		Elapsed:    t.Now() - start,
	}, nil
}

var _ core.Estimator = (*Estimator)(nil)
