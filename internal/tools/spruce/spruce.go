// Package spruce implements the Spruce estimator (Strauss, Katabi &
// Kaashoek, IMC 2003): direct probing with packet pairs instead of
// trains. Pairs are sent with intra-pair spacing equal to the tight
// link's transmission time of the probe packet (input rate ≈ C_t) and
// exponentially distributed inter-pair gaps that emulate Poisson sampling
// of the avail-bw process.
//
// Per pair, the gap model gives one avail-bw sample:
//
//	A = C_t · (1 − (Δout − Δin)/Δin)
//
// which is Equation (9) specialized to Ri = C_t. Spruce averages a fixed
// number of pair samples (100 in the original tool).
//
// Published defaults (Defaults): 100 pairs (Repeat) of 1500 B packets.
package spruce

import (
	"fmt"
	"time"

	"abw/internal/core"
	"abw/internal/probe"
	"abw/internal/rng"
	"abw/internal/stats"
	"abw/internal/unit"
)

// Defaults returns Spruce's published settings.
func Defaults() core.Params {
	return core.Params{PktSize: 1500, Repeat: 100}
}

// meanSpacing is the mean of the exponential inter-pair gap, keeping the
// average probing load low. pairsPerBatch bounds how many pairs share
// one transport stream: batching amortizes transport overhead while the
// exponential spacing preserves Poisson sampling.
const (
	meanSpacing   = 20 * time.Millisecond
	pairsPerBatch = 25
)

// Estimator is the Spruce direct prober.
type Estimator struct {
	capacity unit.Rate // assumed tight-link capacity C_t
	pairs    int       // pair samples averaged
	pktSize  unit.Bytes
	rand     *rng.Rand // drives the Poisson spacing
}

// New validates p, with zero fields taken from Defaults, and returns
// the estimator.
func New(p core.Params) (*Estimator, error) {
	p = p.WithDefaults(Defaults())
	if p.Capacity <= 0 {
		return nil, fmt.Errorf("spruce: tight-link capacity is required (direct probing)")
	}
	if p.Repeat < 1 {
		return nil, fmt.Errorf("spruce: need at least one pair")
	}
	if p.Rand == nil {
		return nil, fmt.Errorf("spruce: random source is required for Poisson spacing")
	}
	return &Estimator{capacity: p.Capacity, pairs: p.Repeat, pktSize: p.PktSize, rand: p.Rand}, nil
}

// Estimate implements core.Estimator.
func (e *Estimator) Estimate(t core.Transport) (*core.Report, error) {
	var samples []unit.Rate
	remaining := e.pairs
	for remaining > 0 {
		n := remaining
		if n > pairsPerBatch {
			n = pairsPerBatch
		}
		remaining -= n
		spec, err := probe.PoissonPairs(e.capacity, e.pktSize, n, meanSpacing, e.rand)
		if err != nil {
			return nil, fmt.Errorf("spruce: %w", err)
		}
		rec, err := t.Probe(spec)
		if err != nil {
			return nil, fmt.Errorf("spruce: %w", err)
		}
		// The gap model's Δin is the constructed spacing gin, not the
		// measured send gap: Spruce trusts its own pacing.
		gin := unit.GapFor(e.pktSize, e.capacity)
		for k := 0; k < n; k++ {
			_, gout, ok := rec.PairGaps(2 * k)
			if !ok {
				continue
			}
			samples = append(samples, probe.PairGapAvailBw(e.capacity, gin, gout))
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("spruce: no measurable pairs out of %d", e.pairs)
	}
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = float64(s)
	}
	min, max := stats.MinMax(vals)
	return &core.Report{
		Point:   unit.Rate(stats.Mean(vals)),
		Low:     unit.Rate(min),
		High:    unit.Rate(max),
		Samples: samples,
	}, nil
}

var _ core.Estimator = (*Estimator)(nil)
