// Package toolstest is a thin shim over internal/scenario for
// estimation-tool tests: the paper's canonical single-hop setting
// (50 Mbps tight link, 25 Mbps cross traffic) and its homogeneous
// multi-hop variant, each exposing the ground-truth avail-bw for
// assertions. Heterogeneous topologies are expressed directly as
// scenario.Spec; this package only keeps the historical one-struct
// options for the common homogeneous case.
package toolstest

import (
	"context"
	"time"

	"abw/internal/core"
	"abw/internal/scenario"
	"abw/internal/unit"
)

// Scenario is a compiled scenario: a transport with its ground truth.
type Scenario = scenario.Compiled

// Traffic selects the cross-traffic model.
type Traffic = scenario.Kind

// Cross-traffic models for scenarios.
const (
	CBR         = scenario.CBR
	Poisson     = scenario.Poisson
	ParetoOnOff = scenario.ParetoOnOff
)

// Seed returns a pointer to v for Options.Seed: the pointer form makes
// seed 0 a valid explicit seed (nil means the default seed 1).
func Seed(v uint64) *uint64 { return scenario.Seed(v) }

// Options configures a homogeneous scenario; zero values take the
// paper's canonical parameters.
type Options struct {
	Capacity  unit.Rate     // default 50 Mbps
	CrossRate unit.Rate     // default 25 Mbps
	Model     Traffic       // default CBR
	CrossSize int           // cross packet size, default 1500 (CBR uses it too)
	Hops      int           // default 1
	Horizon   time.Duration // how long cross traffic is scheduled, default 120 s
	Seed      *uint64       // default 1; Seed(0) is a valid explicit seed
}

// New builds a scenario: Hops identical tight links, each carrying
// one-hop-persistent cross traffic of the chosen model at CrossRate.
func New(opts Options) *Scenario {
	o := opts
	if o.Capacity == 0 {
		o.Capacity = 50 * unit.Mbps
	}
	if o.CrossRate == 0 {
		o.CrossRate = 25 * unit.Mbps
	}
	if o.CrossSize == 0 {
		o.CrossSize = 1500
	}
	if o.Hops == 0 {
		o.Hops = 1
	}
	spec := scenario.Spec{Horizon: o.Horizon, Seed: o.Seed}
	for h := 0; h < o.Hops; h++ {
		spec.Hops = append(spec.Hops, scenario.Hop{
			Capacity: o.Capacity,
			Traffic: []scenario.Source{{
				Kind:    o.Model,
				Rate:    o.CrossRate,
				PktSize: unit.Bytes(o.CrossSize),
			}},
		})
	}
	return scenario.MustCompile(spec)
}

// Estimate runs e over t as registry.Estimate does, over a core.Run
// under ctx with no budget and no observer, so the report carries the
// run's cost. Its Tool stays empty: the canonical name is the
// registry's.
func Estimate(ctx context.Context, e core.Estimator, t core.Transport) (*core.Report, error) {
	run := core.StartRun(ctx, t, core.Budget{}, nil)
	rep, err := e.Estimate(run)
	if err != nil {
		return nil, err
	}
	run.Finish("", rep)
	return rep, nil
}
