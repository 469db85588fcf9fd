package abw

// This file fronts the scenario subsystem: declarative simulated paths
// with exact ground truth, and the named catalog of the conditions the
// paper warns about — the scenario-side mirror of the estimator
// registry in abw.go.

import (
	"fmt"
	"time"

	"abw/internal/scenario"
)

// Declarative scenario types re-exported from the scenario subsystem.
type (
	// ScenarioSpec describes a heterogeneous simulated path: per-hop
	// capacity/buffer/delay and an arbitrary mix of traffic sources,
	// optionally time-varying.
	ScenarioSpec = scenario.Spec
	// Hop is one store-and-forward link with its cross traffic.
	Hop = scenario.Hop
	// Source is one traffic source on a hop.
	Source = scenario.Source
	// RateStep is one segment of a piecewise-constant rate profile.
	RateStep = scenario.RateStep
	// Traffic selects a cross-traffic model for simulated scenarios.
	Traffic = scenario.Kind
	// ScenarioInfo describes one cataloged scenario: name, aliases,
	// summary, and the spec behind it.
	ScenarioInfo = scenario.Descriptor
	// Queue selects a hop's queue discipline (FIFO tail-drop, RED,
	// CoDel) and carries its tuning knobs.
	Queue = scenario.Queue
	// QueueKind names a queue discipline for Queue.Kind.
	QueueKind = scenario.QueueKind
	// Loss selects a hop's stochastic loss model (Bernoulli or
	// Gilbert–Elliott bursty loss) applied on arrival.
	Loss = scenario.Loss
	// LossKind names a loss model for Loss.Kind.
	LossKind = scenario.LossKind
	// Reorder bounds a hop's random extra propagation jitter, which
	// reorders packets that were queued back-to-back.
	Reorder = scenario.Reorder
)

// Queue disciplines and loss models for Hop.Queue / Hop.Loss.
const (
	QueueFIFO  = scenario.QueueFIFO
	QueueRED   = scenario.QueueRED
	QueueCoDel = scenario.QueueCoDel

	LossNone           = scenario.LossNone
	LossBernoulli      = scenario.LossBernoulli
	LossGilbertElliott = scenario.LossGilbertElliott
)

// Cross-traffic models.
const (
	CBR              = scenario.CBR
	Poisson          = scenario.Poisson
	ParetoOnOff      = scenario.ParetoOnOff
	ParetoArrivals   = scenario.ParetoArrivals
	LRD              = scenario.LRD
	Mice             = scenario.Mice
	BufferLimitedTCP = scenario.BufferLimitedTCP
)

// Seed returns a pointer to v for ScenarioSpec.Seed: the pointer form
// makes seed 0 a valid explicit seed (nil means the default seed 1).
func Seed(v uint64) *uint64 { return scenario.Seed(v) }

// Scenarios returns the cataloged scenarios in their canonical order.
func Scenarios() []ScenarioInfo { return scenario.Catalog() }

// Scenario is a simulated path with known ground truth: the controlled
// conditions the paper demands for comparing estimation techniques.
// Its Transport runs any registered tool; consecutive runs observe
// consecutive slices of the cross-traffic process, exactly how a real
// tool samples a live path.
type Scenario struct {
	// Name is the catalog name when the scenario was built from one.
	Name string
	// Transport delivers probing streams over the simulated path.
	Transport Transport
	// TrueAvailBw is the analytic long-run avail-bw of the tight link
	// — the ground truth estimates are judged against.
	TrueAvailBw Rate
	// Capacity is the tight-link capacity (what direct-probing tools
	// need as Params.Capacity).
	Capacity Rate
	// TightLink and NarrowLink are hop indices: minimum avail-bw vs
	// minimum capacity. Where they differ, feeding a capacity tool's
	// answer to a direct-probing tool is the paper's fifth pitfall.
	TightLink, NarrowLink int

	compiled *scenario.Compiled
}

// Hops returns the path length.
func (s *Scenario) Hops() int { return len(s.compiled.Path.Links) }

// AvailBw returns the spec's avail-bw of the given hop over
// [from, from+window) of virtual time — the paper's A(t, t+τ): the
// hop's capacity over the window minus the load its cross traffic is
// specified to offer over it. It excludes the probe, so after an
// estimate AvailBw(TightLink, 0, report.Elapsed) is the truth that
// estimate is judged against. It panics on a hop outside [0, Hops()),
// a non-positive window, or a window past the scenario's horizon.
func (s *Scenario) AvailBw(hop int, from, window time.Duration) Rate {
	return s.compiled.AvailBw(hop, from, window)
}

// SpecOrName is the input NewScenario accepts: a declarative
// ScenarioSpec, or the name of a cataloged scenario.
type SpecOrName interface{ ScenarioSpec | string }

// NewScenario builds a deterministic simulated path from a declarative
// spec or a catalog name. Identical inputs give identical packet-level
// behavior, so estimator runs are exactly reproducible.
func NewScenario[T SpecOrName](v T) (*Scenario, error) {
	name, spec := "", ScenarioSpec{}
	switch x := any(v).(type) {
	case string:
		d, ok := scenario.Lookup(x)
		if !ok {
			return nil, fmt.Errorf("abw: unknown scenario %q (have %v)", x, scenario.Names())
		}
		name, spec = d.Name, d.Spec
	default:
		spec = x.(ScenarioSpec)
	}
	cpl, err := scenario.Compile(spec)
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name:        name,
		Transport:   cpl.Transport,
		TrueAvailBw: cpl.TrueAvailBw,
		Capacity:    cpl.Capacity,
		TightLink:   cpl.TightLink,
		NarrowLink:  cpl.NarrowLink,
		compiled:    cpl,
	}, nil
}
