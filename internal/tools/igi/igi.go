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
package igi

import (
	"context"
	"fmt"
	"time"

	"abw/internal/core"
	"abw/internal/probe"
	"abw/internal/unit"
)

// Mode selects which of the two estimates the tool reports.
type Mode int

// Modes.
const (
	PTR Mode = iota // packet transmission rate at the turning point
	IGI             // gap-model cross-traffic estimate (needs capacity)
)

// Config tunes the estimator.
type Config struct {
	// Mode selects PTR or IGI (default PTR).
	Mode Mode
	// Capacity is the tight-link capacity; required for IGI mode, where
	// it scales the gap formula (the original tool obtains it from
	// bprobe — see core.Misconceptions[4] for the attendant pitfall).
	Capacity unit.Rate
	// InitRate is the first probing rate (default: Capacity if known,
	// else required).
	InitRate unit.Rate
	// TrainLen is packets per train (default 60, the published value).
	TrainLen int
	// PktSize is the probe packet size (default 750 B, IGI's default).
	PktSize unit.Bytes
	// MaxIterations bounds the search (default 30).
	MaxIterations int
}

// The gap search adds gapStep × the initial gap to the source gap each
// iteration, and stops at the turning point: the first train whose mean
// output gap exceeds its source gap by at most epsilon of it.
const gapStep, epsilon = 0.25, 0.05

func (c Config) withDefaults() (Config, error) {
	if c.Mode == IGI && c.Capacity <= 0 {
		return c, fmt.Errorf("igi: IGI mode requires the tight-link capacity")
	}
	if c.InitRate == 0 {
		c.InitRate = c.Capacity
	}
	if c.InitRate <= 0 {
		return c, fmt.Errorf("igi: initial probing rate required")
	}
	if c.TrainLen == 0 {
		c.TrainLen = 60
	}
	if c.TrainLen < 3 {
		return c, fmt.Errorf("igi: train length %d too short", c.TrainLen)
	}
	if c.PktSize == 0 {
		c.PktSize = 750
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 30
	}
	if c.MaxIterations < 1 {
		return c, fmt.Errorf("igi: MaxIterations must be positive")
	}
	return c, nil
}

// Estimator is the IGI/PTR prober.
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
func (e *Estimator) Name() string {
	if e.cfg.Mode == IGI {
		return "igi"
	}
	return "ptr"
}

// Estimate implements core.Estimator: increase the source gap from the
// initial (fastest) setting until the output gap stops expanding, then
// report PTR or the IGI gap-model estimate at that turning point.
func (e *Estimator) Estimate(ctx context.Context, t core.Transport) (*core.Report, error) {
	c := e.cfg
	start := t.Now()
	gapInit := unit.GapFor(c.PktSize, c.InitRate)
	gap := gapInit
	var streams, packets int
	var bytes unit.Bytes
	var turning *probe.Record
	for iter := 0; iter < c.MaxIterations; iter++ {
		rate := unit.RateOf(c.PktSize, gap)
		spec := probe.Periodic(rate, c.PktSize, c.TrainLen)
		rec, err := core.Probe(ctx, t, spec)
		if err != nil {
			return nil, fmt.Errorf("igi: iteration %d: %w", iter, err)
		}
		streams++
		packets += spec.Count
		bytes += spec.Bytes()
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
		return nil, fmt.Errorf("igi: no measurable trains")
	}
	var point unit.Rate
	switch c.Mode {
	case IGI:
		point = igiEstimate(turning, c.Capacity, c.PktSize)
	default:
		point = turning.OutputRate()
	}
	if point < 0 {
		point = 0
	}
	return &core.Report{
		Tool:       e.Name(),
		Point:      point,
		Low:        point,
		High:       point,
		Streams:    streams,
		Packets:    packets,
		ProbeBytes: bytes,
		Elapsed:    t.Now() - start,
	}, nil
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
