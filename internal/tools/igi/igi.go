// Package igi implements the IGI and PTR estimators (Hu & Steenkiste,
// JSAC 2003). Both send 60-packet probing trains and iteratively adjust
// the source gap until the "turning point", where the average output gap
// matches the input gap — i.e. the train no longer builds queue.
//
//   - PTR (Packet Transmission Rate) reports the train's achieved rate at
//     the turning point: pure iterative probing, like TOPP with trains.
//   - IGI (Initial Gap Increasing) additionally applies a direct-probing
//     gap formula at the turning point, crediting cross traffic for the
//     gap expansion of backlogged pairs: it therefore needs the tight
//     link capacity — the hybrid classification the paper discusses.
//
// Published defaults (Defaults), shared by both: trains of 60 packets
// (StreamLen) of 750 B, IGI's probe size, and at most 30 iterations of
// the gap search (MaxRounds). PTR starts the search at RateHi, or at
// Capacity when RateHi is unset; IGI starts it at Capacity, the
// back-to-back gap its gap model wants.
package igi

import (
	"fmt"
	"time"

	"abw/internal/core"
	"abw/internal/probe"
	"abw/internal/unit"
)

// Defaults returns the published settings of IGI and PTR.
func Defaults() core.Params {
	return core.Params{PktSize: 750, StreamLen: 60, MaxRounds: 30}
}

// The gap search adds gapStep × the initial gap to the source gap each
// iteration, and stops at the turning point: the first train whose mean
// output gap exceeds its source gap by at most epsilon of it.
const gapStep, epsilon = 0.25, 0.05

// Estimator is the IGI/PTR prober.
type Estimator struct {
	name          string    // "igi" or "ptr": the mode, and its errors' prefix
	capacity      unit.Rate // tight-link capacity; IGI's gap formula scales by it
	initRate      unit.Rate // first (fastest) probing rate
	trainLen      int       // packets per train
	pktSize       unit.Bytes
	maxIterations int // bound on the gap search
}

// NewPTR validates p, with zero fields taken from Defaults, and returns
// the PTR estimator. Its search starts at RateHi, or at Capacity when
// RateHi is unset.
func NewPTR(p core.Params) (*Estimator, error) {
	initRate := p.RateHi
	if initRate <= 0 {
		initRate = p.Capacity
	}
	return newEstimator("ptr", initRate, p)
}

// NewIGI validates p, with zero fields taken from Defaults, and returns
// the IGI estimator. It requires Capacity — the original tool obtains
// it from bprobe, see core.Misconceptions[4] for the attendant pitfall —
// and starts its search there.
func NewIGI(p core.Params) (*Estimator, error) {
	if p.Capacity <= 0 {
		return nil, fmt.Errorf("igi: IGI mode requires the tight-link capacity")
	}
	return newEstimator("igi", p.Capacity, p)
}

func newEstimator(name string, initRate unit.Rate, p core.Params) (*Estimator, error) {
	p = p.WithDefaults(Defaults())
	if initRate <= 0 {
		return nil, fmt.Errorf("%s: initial probing rate required", name)
	}
	if p.StreamLen < 3 {
		return nil, fmt.Errorf("%s: train length %d too short", name, p.StreamLen)
	}
	if p.MaxRounds < 1 {
		return nil, fmt.Errorf("%s: MaxRounds must be positive", name)
	}
	return &Estimator{
		name: name, capacity: p.Capacity, initRate: initRate,
		trainLen: p.StreamLen, pktSize: p.PktSize, maxIterations: p.MaxRounds,
	}, nil
}

// Estimate implements core.Estimator: increase the source gap from the
// initial (fastest) setting until the output gap stops expanding, then
// report PTR or the IGI gap-model estimate at that turning point.
func (e *Estimator) Estimate(t core.Transport) (*core.Report, error) {
	gapInit := unit.GapFor(e.pktSize, e.initRate)
	gap := gapInit
	var turning *probe.Record
	for iter := 0; iter < e.maxIterations; iter++ {
		rate := unit.RateOf(e.pktSize, gap)
		spec := probe.Periodic(rate, e.pktSize, e.trainLen)
		rec, err := t.Probe(spec)
		if err != nil {
			return nil, fmt.Errorf("%s: iteration %d: %w", e.name, iter, err)
		}
		avgOut := rec.MeanOutputGap()
		if avgOut <= 0 {
			// Unmeasurable train (all pairs lost); slow down and retry.
			gap += time.Duration(float64(gapInit) * gapStep)
			continue
		}
		if float64(avgOut-gap) <= epsilon*float64(gap) {
			turning = rec
			break
		}
		gap += time.Duration(float64(gapInit) * gapStep)
		turning = rec // keep the latest in case we exhaust iterations
	}
	if turning == nil {
		return nil, fmt.Errorf("%s: no measurable trains", e.name)
	}
	var point unit.Rate
	if e.name == "igi" {
		point = igiEstimate(turning, e.capacity, e.pktSize)
	} else {
		point = turning.OutputRate()
	}
	if point < 0 {
		point = 0
	}
	return &core.Report{Point: point, Low: point, High: point}, nil
}

// igiEstimate applies the IGI gap formula at the turning point. A pair
// that is backlogged at the tight link leaves with gap
// g_out = g_B + X/C_t, where g_B is the probe packet's transmission time
// on the tight link and X the cross traffic that slipped between the two
// probes; hence X = C_t·(g_out − g_B). At the turning point the tight
// link runs at ~full utilization (probe rate ≈ A plus cross ≈ C_t), so
// summing over all measurable pairs credits idle time to cross traffic
// only negligibly:
//
//	Rc = C_t · Σ (g_out − g_B)⁺ / Σ g_out,   A = C_t − Rc.
func igiEstimate(rec *probe.Record, capacity unit.Rate, pktSize unit.Bytes) unit.Rate {
	gb := unit.TxTime(pktSize, capacity)
	var cross, total time.Duration
	for k := 0; k+1 < rec.Spec.Count; k++ {
		_, gout, ok := rec.PairGaps(k)
		if !ok {
			continue
		}
		total += gout
		if gout > gb {
			cross += gout - gb
		}
	}
	if total == 0 {
		return 0
	}
	rc := unit.Rate(float64(capacity) * float64(cross) / float64(total))
	a := capacity - rc
	if a < 0 {
		a = 0
	}
	return a
}

var _ core.Estimator = (*Estimator)(nil)
