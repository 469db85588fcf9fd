// Package registry is the single catalog of the estimation techniques
// this module implements. Every tool is described by a Descriptor —
// name, aliases, what inputs it requires, its canonical defaults, and a
// builder over the shared Params struct — and every consumer
// (cmd/abwprobe, the compare experiment, the abw facade, the examples)
// constructs tools through this package. Before the registry, tool
// construction was a switch statement copy-pasted across three places;
// now adding a tool or changing its parameterization happens here once.
package registry

import (
	"context"
	"fmt"
	"math"

	"abw/internal/core"
	"abw/internal/rng"
	"abw/internal/unit"
)

// Params is the uniform parameter set every tool is built from. Zero
// fields take the tool's published defaults (see Descriptor.Defaults);
// tools that can derive a missing field from another one do so — the
// rate-bracket tools derive their bracket from Capacity, PTR derives
// its initial rate from RateHi or Capacity.
type Params struct {
	// RateLo and RateHi bracket the probed rates for iterative tools
	// (Pathload's binary search, TOPP's sweep, pathChirp's chirp span).
	RateLo, RateHi unit.Rate
	// Capacity is the tight-link capacity C_t, required by the
	// direct-probing tools (Delphi, Spruce, IGI) — with the paper's
	// pitfall that capacity tools measure the narrow link, not the
	// tight one (core.Misconceptions[4]).
	Capacity unit.Rate
	// PktSize is the probe packet size.
	PktSize unit.Bytes
	// StreamLen is the packets per probing stream (train length, chirp
	// length, Pathload's K).
	StreamLen int
	// Repeat is the tool's repetition knob: streams per rate, trains,
	// chirps, or pairs averaged.
	Repeat int
	// MaxRounds caps the probing-rate search for iterative tools.
	MaxRounds int
	// Rand drives the tool's own randomness (Spruce's Poisson pair
	// spacing). Required only where Descriptor.NeedsRand says so.
	Rand *rng.Rand
	// Budget caps the probing effort, enforced below the tool by a
	// core.BudgetTransport so cross-tool comparisons are budget-fair by
	// construction. Zero means unlimited.
	Budget core.Budget
	// Observer, if set, receives per-stream progress events.
	Observer core.Observer
}

// merged returns p with zero fields filled from the descriptor's
// defaults. Budget, Rand and Observer are run wiring, not tool shape,
// and are never defaulted.
func (p Params) merged(def Params) Params {
	if p.RateLo == 0 {
		p.RateLo = def.RateLo
	}
	if p.RateHi == 0 {
		p.RateHi = def.RateHi
	}
	if p.Capacity == 0 {
		p.Capacity = def.Capacity
	}
	if p.PktSize == 0 {
		p.PktSize = def.PktSize
	}
	if p.StreamLen == 0 {
		p.StreamLen = def.StreamLen
	}
	if p.Repeat == 0 {
		p.Repeat = def.Repeat
	}
	if p.MaxRounds == 0 {
		p.MaxRounds = def.MaxRounds
	}
	return p
}

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
	// Defaults are the tool's published default Params; Build merges
	// them under the caller's Params before constructing.
	Defaults Params
	// Build constructs the estimator from merged, validated Params.
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
	p = p.merged(d.Defaults)
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
	return p.merged(d.Defaults)
}

// Estimate is the one-call path from a tool name to a report: look the
// tool up, validate its requirements, build it from the defaults-merged
// Params (the descriptor's builder also runs the tool's own Config
// validation), decorate the transport with the Params' observer and
// budget, and run it under ctx. It is what the abw facade and
// cmd/abwprobe call.
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
	est, err := d.Build(p.merged(d.Defaults))
	if err != nil {
		return nil, err
	}
	// Order matters: the observer sees only streams the budget admitted.
	t = core.WithBudget(core.WithObserver(t, p.Observer), p.Budget)
	return est.Estimate(ctx, t)
}

// bracket returns the probing-rate bracket: the caller's if set,
// otherwise derived from the capacity as loNum/loDen and hiNum/hiDen of
// C_t — the canonical brackets the compare experiment has always used.
func bracket(p Params, loNum, loDen, hiNum, hiDen int64) (lo, hi unit.Rate, err error) {
	lo, hi = p.RateLo, p.RateHi
	if lo == 0 && p.Capacity > 0 {
		lo = p.Capacity * unit.Rate(loNum) / unit.Rate(loDen)
	}
	if hi == 0 && p.Capacity > 0 {
		hi = p.Capacity * unit.Rate(hiNum) / unit.Rate(hiDen)
	}
	if lo <= 0 || hi <= lo {
		return 0, 0, fmt.Errorf("registry: need a rate bracket (RateLo < RateHi) or a Capacity to derive one (got %v, %v)", lo, hi)
	}
	return lo, hi, nil
}
