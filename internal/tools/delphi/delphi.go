// Package delphi implements the canonical direct-probing estimator
// (Ribeiro et al., "Multifractal Cross-Traffic Estimation", ITC 2000).
// Each periodic probing train yields one sample of the avail-bw process
// by inverting the single-link rate response (the paper's Equation 9),
// assuming the tight-link capacity is known.
//
// Per the paper's classification, the defining properties are: (a) it
// samples the avail-bw process once per train, and (b) it requires the
// tight-link capacity C_t — with all the pitfalls that assumption brings
// (see core.Misconceptions[4]).
package delphi

import (
	"context"
	"fmt"
	"time"

	"abw/internal/core"
	"abw/internal/fluid"
	"abw/internal/probe"
	"abw/internal/stats"
	"abw/internal/unit"
)

// Config tunes the estimator. Zero fields take defaults.
type Config struct {
	// Capacity is the assumed tight-link capacity C_t (required).
	Capacity unit.Rate
	// PktSize is the probing packet size (default 1500 B).
	PktSize unit.Bytes
	// TrainLen is packets per train (default 100). The train duration
	// sets the averaging timescale τ.
	TrainLen int
	// Trains is the number of avail-bw samples k (default 20).
	Trains int
}

func (c Config) withDefaults() (Config, error) {
	if c.Capacity <= 0 {
		return c, fmt.Errorf("delphi: tight-link capacity is required (direct probing)")
	}
	if c.PktSize == 0 {
		c.PktSize = 1500
	}
	if c.TrainLen == 0 {
		c.TrainLen = 100
	}
	if c.TrainLen < 2 {
		return c, fmt.Errorf("delphi: train length %d too short", c.TrainLen)
	}
	if c.Trains == 0 {
		c.Trains = 20
	}
	if c.Trains < 1 {
		return c, fmt.Errorf("delphi: need at least one train")
	}
	return c, nil
}

// probeRate is the train input rate, 3/4 of the capacity: it must
// exceed the avail-bw for Equation (9) to apply.
func (c Config) probeRate() unit.Rate { return c.Capacity * 3 / 4 }

// Estimator is the Delphi direct prober.
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
func (e *Estimator) Name() string { return "delphi" }

// Estimate implements core.Estimator: it collects one avail-bw sample
// per train via Equation (9) and reports their mean and spread.
func (e *Estimator) Estimate(ctx context.Context, t core.Transport) (*core.Report, error) {
	c := e.cfg
	start := t.Now()
	spec := probe.Periodic(c.probeRate(), c.PktSize, c.TrainLen)
	var samples []unit.Rate
	var packets int
	var bytes unit.Bytes
	for i := 0; i < c.Trains; i++ {
		rec, err := core.Probe(ctx, t, spec)
		if err != nil {
			return nil, fmt.Errorf("delphi: train %d: %w", i, err)
		}
		packets += spec.Count
		bytes += spec.Bytes()
		ri, ro := rec.InputRate(), rec.OutputRate()
		if ri <= 0 || ro <= 0 {
			continue // unmeasurable train (heavy loss); skip the sample
		}
		a, err := fluid.DirectEstimate(c.Capacity, ri, ro)
		if err != nil {
			continue
		}
		samples = append(samples, probe.ClampToCapacity(a, c.Capacity))
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("delphi: no measurable trains out of %d", c.Trains)
	}
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = float64(s)
	}
	min, max := stats.MinMax(vals)
	rep := &core.Report{
		Tool:       e.Name(),
		Point:      unit.Rate(stats.Mean(vals)),
		Low:        unit.Rate(min),
		High:       unit.Rate(max),
		Streams:    c.Trains,
		Packets:    packets,
		ProbeBytes: bytes,
		Elapsed:    t.Now() - start,
		Samples:    samples,
	}
	return rep, nil
}

// Timescale returns the averaging timescale τ implied by the
// configuration: the train's send duration. Exposed because the paper's
// second pitfall is precisely that this is a measurement parameter.
func (e *Estimator) Timescale() time.Duration {
	return probe.Periodic(e.cfg.probeRate(), e.cfg.PktSize, e.cfg.TrainLen).Duration()
}

var _ core.Estimator = (*Estimator)(nil)
