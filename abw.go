package abw

// This file is the public facade: the one import external users (and
// the examples) need. It re-exports the stable types from the internal
// packages and fronts the tool registry, so estimators are nameable,
// parameterizable, budgetable, cancellable and observable without ever
// importing internal/.

import (
	"context"

	"abw/internal/core"
	"abw/internal/rng"
	"abw/internal/tools/registry"
	"abw/internal/unit"
)

// Re-exported quantity types: every rate in the API is bits per second,
// every size in bytes.
type (
	// Rate is a data rate in bits per second.
	Rate = unit.Rate
	// Bytes is a data volume in bytes.
	Bytes = unit.Bytes
)

// Rate constructors and well-known capacities.
const (
	Kbps         = unit.Kbps
	Mbps         = unit.Mbps
	Gbps         = unit.Gbps
	OC3          = unit.OC3
	FastEthernet = unit.FastEthernet
)

// Core abstractions re-exported from the conceptual layer.
type (
	// Report is the outcome of one estimation run.
	Report = core.Report
	// Outcome is the JSON shape of a run: report or error text.
	Outcome = core.Outcome
	// Transport delivers probing streams (simulated or live).
	Transport = core.Transport
	// Estimator is one estimation technique, as Estimate builds it:
	// its one method, Estimate(Transport) (*Report, error), probes the
	// run's transport and infers the estimate, and Estimate stamps the
	// tool's name and the run's cost on the report.
	Estimator = core.Estimator
	// Budget caps the probing effort of a run; zero fields are
	// unlimited.
	Budget = core.Budget
	// Observer receives per-stream progress events.
	Observer = core.Observer
	// StreamEvent is one per-stream progress notification.
	StreamEvent = core.StreamEvent
)

// ErrBudget is wrapped by every budget-exhaustion error; test with
// errors.Is.
var ErrBudget = core.ErrBudget

// NewOutcome captures a run's report and error into the shared JSON
// shape.
func NewOutcome(tool string, rep *Report, err error) Outcome {
	return core.NewOutcome(tool, rep, err)
}

// Rand is the module's deterministic random-number generator; tools
// that need randomness (Spruce's Poisson pair spacing) take one in
// Params.
type Rand = rng.Rand

// NewRand returns a deterministic generator for the given seed: the
// same seed always reproduces the same probing behavior.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Tool describes one registered estimation technique: name, aliases,
// required inputs, and published defaults.
type Tool = registry.Descriptor

// Params is the uniform parameter set every tool is built from; zero
// fields take the tool's published defaults.
type Params = registry.Params

// Tools returns the registered estimation techniques in their
// canonical order.
func Tools() []Tool { return registry.Tools() }

// LookupTool finds a technique by name or alias.
func LookupTool(name string) (Tool, bool) { return registry.Lookup(name) }

// Estimate runs the named technique over the transport: the tool is
// built from Params and runs over one run of the transport, which
// enforces the Params' budget, tells its observer of every stream,
// honors ctx cancellation at stream boundaries, and counts the cost
// the report carries.
func Estimate(ctx context.Context, name string, p Params, t Transport) (*Report, error) {
	return registry.Estimate(ctx, name, p, t)
}
