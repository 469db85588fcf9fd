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
//
// Published defaults (Defaults): k = 20 trains (Repeat) of 100 packets
// (StreamLen) of 1500 B, sent at 3/4 of Capacity.
package delphi

import (
	"fmt"
	"time"

	"abw/internal/core"
	"abw/internal/fluid"
	"abw/internal/probe"
	"abw/internal/stats"
	"abw/internal/unit"
)

// Defaults returns Delphi's published settings.
func Defaults() core.Params {
	return core.Params{PktSize: 1500, StreamLen: 100, Repeat: 20}
}

// Estimator is the Delphi direct prober.
type Estimator struct {
	capacity unit.Rate // assumed tight-link capacity C_t
	pktSize  unit.Bytes
	trainLen int // packets per train; its send duration is the timescale τ
	trains   int // avail-bw samples k
}

// New validates p, with zero fields taken from Defaults, and returns
// the estimator.
func New(p core.Params) (*Estimator, error) {
	p = p.WithDefaults(Defaults())
	if p.Capacity <= 0 {
		return nil, fmt.Errorf("delphi: tight-link capacity is required (direct probing)")
	}
	if p.StreamLen < 2 {
		return nil, fmt.Errorf("delphi: train length %d too short", p.StreamLen)
	}
	if p.Repeat < 1 {
		return nil, fmt.Errorf("delphi: need at least one train")
	}
	return &Estimator{capacity: p.Capacity, pktSize: p.PktSize, trainLen: p.StreamLen, trains: p.Repeat}, nil
}

// probeRate is the train input rate, 3/4 of the capacity: it must
// exceed the avail-bw for Equation (9) to apply.
func (e *Estimator) probeRate() unit.Rate { return e.capacity * 3 / 4 }

// Estimate implements core.Estimator: it collects one avail-bw sample
// per train via Equation (9) and reports their mean and spread.
func (e *Estimator) Estimate(t core.Transport) (*core.Report, error) {
	spec := probe.Periodic(e.probeRate(), e.pktSize, e.trainLen)
	var samples []unit.Rate
	for i := 0; i < e.trains; i++ {
		rec, err := t.Probe(spec)
		if err != nil {
			return nil, fmt.Errorf("delphi: train %d: %w", i, err)
		}
		ri, ro := rec.InputRate(), rec.OutputRate()
		if ri <= 0 || ro <= 0 {
			continue // unmeasurable train (heavy loss); skip the sample
		}
		a, err := fluid.DirectEstimate(e.capacity, ri, ro)
		if err != nil {
			continue
		}
		samples = append(samples, probe.ClampToCapacity(a, e.capacity))
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("delphi: no measurable trains out of %d", e.trains)
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

// Timescale returns the averaging timescale τ implied by the
// configuration: the train's send duration. Exposed because the paper's
// second pitfall is precisely that this is a measurement parameter.
func (e *Estimator) Timescale() time.Duration {
	return probe.Periodic(e.probeRate(), e.pktSize, e.trainLen).Duration()
}

var _ core.Estimator = (*Estimator)(nil)
