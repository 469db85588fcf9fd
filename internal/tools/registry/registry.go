// Package registry is the single catalog of the estimation techniques
// this module implements. Every tool is described by a Descriptor —
// name, aliases, what inputs it requires, and its published defaults
// and constructor over the shared Params, both read from the tool's own
// package — and every consumer (cmd/abwprobe, the compare experiment,
// the abw facade, the monitor, the examples) constructs tools through
// this package. Adding a tool is one Register call here; its
// parameters and defaults live beside its code.
package registry

import (
	"context"
	"fmt"
	"math"

	"abw/internal/core"
	"abw/internal/unit"
)

// Params is the uniform parameter set every tool is built from. It is
// core.Params, so the tool packages take it without importing the
// registry.
type Params = core.Params

// Descriptor describes one registered estimation technique: everything
// a caller needs to present the tool (name, summary, requirements) and
// to build it from Params.
type Descriptor struct {
	// Name is the canonical tool name ("pathload", "spruce", ...).
	Name string
	// Aliases are alternative lookup names.
	Aliases []string
	// Summary is a one-line description for CLI catalogs.
	Summary string
	// NeedsCapacity marks direct-probing tools: Params.Capacity is
	// required ("spruce needs -capacity").
	NeedsCapacity bool
	// NeedsRateBracket marks tools probing a rate range: Params.RateLo
	// and RateHi are consumed, and required unless derivable from
	// Capacity.
	NeedsRateBracket bool
	// NeedsRand marks tools that require Params.Rand.
	NeedsRand bool
	// SimOnly is set by no registered tool: every tool runs over a
	// plain core.Transport. Only the bench module still reads it.
	SimOnly bool
	// Defaults are the tool's published default Params, as its
	// package declares them; its constructor fills zero fields from
	// them.
	Defaults Params
	// Build constructs the estimator from Params: the tool's own
	// constructor, which fills defaults and validates.
	Build func(Params) (core.Estimator, error)
}

// descriptors holds the registered tools in registration order — the
// canonical presentation order used by catalogs and the compare
// experiment.
var descriptors []Descriptor

// Register adds a tool to the catalog. It panics on a nil builder or a
// name/alias collision: registration happens at init time from this
// package only, so a collision is a programming error.
func Register(d Descriptor) {
	if d.Name == "" || d.Build == nil {
		panic("registry: descriptor needs a name and a builder")
	}
	for _, name := range append([]string{d.Name}, d.Aliases...) {
		if _, ok := Lookup(name); ok {
			panic(fmt.Sprintf("registry: duplicate tool name %q", name))
		}
	}
	descriptors = append(descriptors, d)
}

// Tools returns the registered descriptors in registration order.
func Tools() []Descriptor {
	out := make([]Descriptor, len(descriptors))
	copy(out, descriptors)
	return out
}

// Names returns the canonical tool names in registration order.
func Names() []string {
	names := make([]string, len(descriptors))
	for i, d := range descriptors {
		names[i] = d.Name
	}
	return names
}

// Lookup finds a descriptor by canonical name or alias.
func Lookup(name string) (Descriptor, bool) {
	for _, d := range descriptors {
		if d.Name == name {
			return d, true
		}
		for _, a := range d.Aliases {
			if a == name {
				return d, true
			}
		}
	}
	return Descriptor{}, false
}

// MissingParams lists the required Params the caller has not provided,
// as field names ("Capacity", "Rand", "RateLo/RateHi"). CLIs derive
// their per-tool flag requirements from this instead of hand-writing
// them.
func (d Descriptor) MissingParams(p Params) []string {
	var missing []string
	if d.NeedsCapacity && p.Capacity <= 0 {
		missing = append(missing, "Capacity")
	}
	if d.NeedsRateBracket && p.Capacity <= 0 && (p.RateLo <= 0 || p.RateHi <= p.RateLo) {
		missing = append(missing, "RateLo/RateHi")
	}
	if d.NeedsRand && p.Rand == nil {
		missing = append(missing, "Rand")
	}
	return missing
}

// ResolvedParams returns p with zero fields filled from the
// descriptor's defaults — the parameters a run built from p would
// actually use. Callers that need to reason about a run before it
// happens (the monitor's admission-cost projection) read these instead
// of re-deriving default tables.
func (d Descriptor) ResolvedParams(p Params) Params {
	return p.WithDefaults(d.Defaults)
}

// Estimate is the one-call path from a tool name to a report: look the
// tool up, validate its requirements, build it from the Params (the
// tool's constructor fills its defaults and runs its own validation),
// and run it over a core.Run of the transport under ctx and the Params'
// budget and observer. The run stamps the report with the tool's
// canonical name and the run's cost. It is what the abw facade,
// cmd/abwprobe, the experiments and the monitor call.
func Estimate(ctx context.Context, name string, p Params, t core.Transport) (*core.Report, error) {
	d, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown tool %q (have %v)", name, Names())
	}
	// NaN slips past every `<= 0` requirement and bracket check below,
	// and a non-finite rate reaches the simulator as a negative time.
	for _, r := range []struct {
		field string
		v     unit.Rate
	}{{"Capacity", p.Capacity}, {"RateLo", p.RateLo}, {"RateHi", p.RateHi}} {
		if r.v != 0 && !(r.v > 0 && r.v < unit.Rate(math.Inf(1))) {
			return nil, fmt.Errorf("registry: %s: Params.%s is %g, want 0 (unset) or finite and > 0", d.Name, r.field, float64(r.v))
		}
	}
	if missing := d.MissingParams(p); len(missing) != 0 {
		return nil, fmt.Errorf("registry: %s needs %v", d.Name, missing)
	}
	est, err := d.Build(p)
	if err != nil {
		return nil, err
	}
	run := core.StartRun(ctx, t, p.Budget, p.Observer)
	rep, err := est.Estimate(run)
	if err != nil {
		return nil, err
	}
	run.Finish(d.Name, rep)
	return rep, nil
}
