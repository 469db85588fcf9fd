package exp

import (
	"context"
	"fmt"

	"abw/internal/core"
	"abw/internal/rng"
	"abw/internal/runner"
	"abw/internal/scenario"
	"abw/internal/tools/registry"
	"abw/internal/unit"
)

// gridCell is one (spec, tool) job of a grid run: the tool's outcome
// and the ground truth of the compilation it probed.
type gridCell struct {
	core.Outcome
	Err                   error
	TrueAvailBw, Capacity unit.Rate
	TightLink, NarrowLink int
}

// An effort is the probing budget a grid hands each tool; runGrid adds
// the compile's Capacity and a fresh Rand on top of it. fullEffort is
// every tool's published defaults.
func fullEffort(string) registry.Params { return registry.Params{} }

// quickEffort is the reduced effort of a -quick matrix.
func quickEffort(tool string) registry.Params {
	if tool == "learned" {
		// Repeat maps onto streams-per-rate-fraction for the learned
		// tool, where 6 would *raise* effort above its plan default of
		// 4; 2 keeps quick a reduced-effort pass there too (8 streams
		// instead of 16).
		return registry.Params{Repeat: 2}
	}
	return registry.Params{Repeat: 6, MaxRounds: 6}
}

// evalEffort is LearnedEval's: the classical tools at quick effort, the
// learned tool at its plan's, which is how the dataset rows probe.
func evalEffort(tool string) registry.Params {
	if tool == "learned" {
		return registry.Params{}
	}
	return quickEffort(tool)
}

// runGrid runs every tool against every spec, each spec compiled at its
// own Spec.Seed. Every (spec, tool) pair is one runner job probing a
// fresh compilation, so no tool inherits another's queue backlog and
// every tool of a spec sees the same cross traffic; the tool's own
// randomness draws from a fresh rng.New(seed+1). The tight-link
// capacity is the tool's Capacity parameter — the best case the paper
// grants direct probing. A tool's failure is recorded in its cell, not
// returned. Cells are spec-major, tool-minor, and bit-identical at
// every worker count.
func runGrid(seed uint64, specs []scenario.Spec, tools []string, effort func(tool string) registry.Params) ([]gridCell, error) {
	return runner.All(len(specs)*len(tools), func(job int) (gridCell, error) {
		si, tool := job/len(tools), tools[job%len(tools)]
		cpl, err := scenario.Compile(specs[si])
		if err != nil {
			return gridCell{}, fmt.Errorf("spec %d: %w", si, err)
		}
		params := effort(tool)
		params.Capacity = cpl.Capacity
		params.Rand = rng.New(seed + 1)
		rep, err := registry.Estimate(context.Background(), tool, params, cpl.Transport)
		return gridCell{
			Outcome: core.NewOutcome(tool, rep, err), Err: err,
			TrueAvailBw: cpl.TrueAvailBw, Capacity: cpl.Capacity,
			TightLink: cpl.TightLink, NarrowLink: cpl.NarrowLink,
		}, nil
	})
}
