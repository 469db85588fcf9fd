// Package pathchirp implements pathChirp (Ribeiro, Riedi, Baraniuk,
// Navratil & Cottrell, PAM 2003): iterative probing with exponentially
// spaced "chirps". A single chirp of N packets probes N−1 rates at once —
// the efficiency the paper's classification notes — because every
// consecutive packet pair has a different instantaneous rate, growing
// geometrically from Lo to Hi.
//
// Per chirp, the queuing-delay signature is analyzed for excursions:
// segments where the delay rises and later drains. The onset of the final
// excursion that never drains marks the rate at which the chirp began to
// exceed the avail-bw; that pair's rate is the chirp's estimate.
// pathChirp reports a single estimate averaged over a sequence of chirps.
//
// Published defaults (Defaults): 12 chirps (Repeat) of N = 15 packets
// (StreamLen) of 1000 B, pathChirp's own probe size. Without
// RateLo/RateHi each chirp spans 1/10 to 24/25 of Capacity.
package pathchirp

import (
	"fmt"

	"abw/internal/core"
	"abw/internal/probe"
	"abw/internal/stats"
	"abw/internal/unit"
)

// Defaults returns pathChirp's published settings.
func Defaults() core.Params {
	return core.Params{PktSize: 1000, StreamLen: 15, Repeat: 12}
}

// gamma is the nominal spread factor γ between consecutive gaps; the
// chirp builder refits it to span [Lo, Hi] exactly.
const gamma = 1.2

// Estimator is the pathChirp iterative prober.
type Estimator struct {
	lo, hi          unit.Rate // rates probed within each chirp
	packetsPerChirp int
	chirps          int // chirps averaged
	pktSize         unit.Bytes
}

// New validates p, with zero fields taken from Defaults, and returns
// the estimator.
func New(p core.Params) (*Estimator, error) {
	p = p.WithDefaults(Defaults())
	lo, hi, err := p.Bracket(1, 10, 24, 25)
	if err != nil {
		return nil, fmt.Errorf("pathchirp: %w", err)
	}
	if p.StreamLen < 3 {
		return nil, fmt.Errorf("pathchirp: chirp needs at least 3 packets")
	}
	if p.Repeat < 1 {
		return nil, fmt.Errorf("pathchirp: need at least one chirp")
	}
	return &Estimator{lo: lo, hi: hi, packetsPerChirp: p.StreamLen, chirps: p.Repeat, pktSize: p.PktSize}, nil
}

// Estimate implements core.Estimator.
func (e *Estimator) Estimate(t core.Transport) (*core.Report, error) {
	spec, err := probe.Chirp(e.lo, e.hi, e.pktSize, e.packetsPerChirp, gamma)
	if err != nil {
		return nil, fmt.Errorf("pathchirp: %w", err)
	}
	var perChirp []float64
	for i := 0; i < e.chirps; i++ {
		rec, err := t.Probe(spec)
		if err != nil {
			return nil, fmt.Errorf("pathchirp: chirp %d: %w", i, err)
		}
		if est, ok := e.analyzeChirp(rec); ok {
			perChirp = append(perChirp, float64(est))
		}
	}
	if len(perChirp) == 0 {
		return nil, fmt.Errorf("pathchirp: no analyzable chirps out of %d", e.chirps)
	}
	min, max := stats.MinMax(perChirp)
	return &core.Report{
		Point: unit.Rate(stats.Mean(perChirp)),
		Low:   unit.Rate(min),
		High:  unit.Rate(max),
	}, nil
}

// analyzeChirp locates the onset of the terminal queuing-delay excursion
// and returns the instantaneous rate at that pair.
func (e *Estimator) analyzeChirp(rec *probe.Record) (unit.Rate, bool) {
	if rec.LossCount() > 0 {
		// A lost packet inside a chirp breaks the pair sequence; treat
		// the chirp as saturated at the first loss.
		for k := 0; k < len(rec.Recv); k++ {
			if rec.Recv[k] == probe.Lost {
				if k == 0 {
					return e.lo, true
				}
				return rec.Spec.RateAtPair(k - 1), true
			}
		}
	}
	q := rec.QueueDelaysSeconds()
	if len(q) < 3 {
		return 0, false
	}
	// Jitter threshold: median absolute delay step.
	thresh := stats.Median(probe.AbsDeltas(q))
	if thresh == 0 {
		thresh = 1e-7 // 100ns floor: virtually noise-free transport
	}
	// Walk backwards: find the last index where the delay was at the
	// floor (≤ thresh above minimum). Everything after it is the
	// terminal excursion.
	onset := len(q) - 1
	for i := len(q) - 1; i >= 0; i-- {
		if q[i] <= thresh {
			onset = i
			break
		}
		onset = i
	}
	last := len(q) - 1
	if q[last] <= 2*thresh {
		// The chirp drained by its end: it never durably exceeded the
		// avail-bw, so the estimate is the top chirp rate.
		return rec.Spec.RateAtPair(rec.Spec.Count - 2), true
	}
	if onset >= rec.Spec.Count-1 {
		onset = rec.Spec.Count - 2
	}
	r := rec.Spec.RateAtPair(onset)
	if r <= 0 {
		return 0, false
	}
	return r, true
}

var _ core.Estimator = (*Estimator)(nil)
