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
package spruce

import (
	"context"
	"fmt"
	"time"

	"abw/internal/core"
	"abw/internal/probe"
	"abw/internal/rng"
	"abw/internal/stats"
	"abw/internal/unit"
)

// Config tunes the estimator. Zero fields take the original tool's
// defaults.
type Config struct {
	// Capacity is the assumed tight-link capacity C_t (required).
	Capacity unit.Rate
	// Pairs is the number of pair samples (default 100).
	Pairs int
	// PktSize is the probe packet size (default 1500 B).
	PktSize unit.Bytes
	// Rand drives the Poisson spacing (required).
	Rand *rng.Rand
}

// meanSpacing is the mean of the exponential inter-pair gap, keeping the
// average probing load low. pairsPerBatch bounds how many pairs share
// one transport stream: batching amortizes transport overhead while the
// exponential spacing preserves Poisson sampling.
const (
	meanSpacing   = 20 * time.Millisecond
	pairsPerBatch = 25
)

func (c Config) withDefaults() (Config, error) {
	if c.Capacity <= 0 {
		return c, fmt.Errorf("spruce: tight-link capacity is required (direct probing)")
	}
	if c.Pairs == 0 {
		c.Pairs = 100
	}
	if c.Pairs < 1 {
		return c, fmt.Errorf("spruce: need at least one pair")
	}
	if c.PktSize == 0 {
		c.PktSize = 1500
	}
	if c.Rand == nil {
		return c, fmt.Errorf("spruce: random source is required for Poisson spacing")
	}
	return c, nil
}

// Estimator is the Spruce direct prober.
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
func (e *Estimator) Name() string { return "spruce" }

// Estimate implements core.Estimator.
func (e *Estimator) Estimate(ctx context.Context, t core.Transport) (*core.Report, error) {
	c := e.cfg
	start := t.Now()
	var samples []unit.Rate
	var streams, packets int
	var bytes unit.Bytes
	remaining := c.Pairs
	for remaining > 0 {
		n := remaining
		if n > pairsPerBatch {
			n = pairsPerBatch
		}
		remaining -= n
		spec, err := probe.PoissonPairs(c.Capacity, c.PktSize, n, meanSpacing, c.Rand)
		if err != nil {
			return nil, fmt.Errorf("spruce: %w", err)
		}
		rec, err := core.Probe(ctx, t, spec)
		if err != nil {
			return nil, fmt.Errorf("spruce: %w", err)
		}
		streams++
		packets += spec.Count
		bytes += spec.Bytes()
		// The gap model's Δin is the constructed spacing gin, not the
		// measured send gap: Spruce trusts its own pacing.
		gin := unit.GapFor(c.PktSize, c.Capacity)
		for k := 0; k < n; k++ {
			_, gout, ok := rec.PairGaps(2 * k)
			if !ok {
				continue
			}
			samples = append(samples, probe.PairGapAvailBw(c.Capacity, gin, gout))
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("spruce: no measurable pairs out of %d", c.Pairs)
	}
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = float64(s)
	}
	min, max := stats.MinMax(vals)
	return &core.Report{
		Tool:       e.Name(),
		Point:      unit.Rate(stats.Mean(vals)),
		Low:        unit.Rate(min),
		High:       unit.Rate(max),
		Streams:    streams,
		Packets:    packets,
		ProbeBytes: bytes,
		Elapsed:    t.Now() - start,
		Samples:    samples,
	}, nil
}

var _ core.Estimator = (*Estimator)(nil)
