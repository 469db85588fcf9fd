package core

import (
	"fmt"

	"abw/internal/rng"
	"abw/internal/unit"
)

// Params is the uniform parameter set every tool is built from. Each
// tool package declares its published defaults as a Params beside its
// code (pathload.Defaults and so on) and fills zero fields from them;
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
	// tight one (Misconceptions[4]).
	Capacity unit.Rate
	// PktSize is the probe packet size.
	PktSize unit.Bytes
	// StreamLen is the packets per probing stream (train length, chirp
	// length, Pathload's K).
	StreamLen int
	// Repeat is the tool's repetition knob: streams per rate, trains,
	// chirps, or pairs averaged.
	Repeat int
	// MaxRounds caps the probing-rate search for iterative tools, and
	// the rate fractions the learned tool probes.
	MaxRounds int
	// Rand drives the tool's own randomness (Spruce's Poisson pair
	// spacing).
	Rand *rng.Rand
	// Budget caps the probing effort, enforced below the tool by the
	// run's transport (a Run) so cross-tool comparisons are
	// budget-fair by construction. Zero means unlimited.
	Budget Budget
	// Observer, if set, receives per-stream progress events.
	Observer Observer
}

// WithDefaults returns p with zero fields filled from def. Budget, Rand
// and Observer are run wiring, not tool shape, and are never defaulted.
func (p Params) WithDefaults(def Params) Params {
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

// Bracket returns the probing-rate bracket: RateLo and RateHi where
// set, otherwise loNum/loDen and hiNum/hiDen of the capacity. It fails
// when neither gives 0 < lo < hi.
func (p Params) Bracket(loNum, loDen, hiNum, hiDen int64) (lo, hi unit.Rate, err error) {
	lo, hi = p.RateLo, p.RateHi
	if lo == 0 && p.Capacity > 0 {
		lo = p.Capacity * unit.Rate(loNum) / unit.Rate(loDen)
	}
	if hi == 0 && p.Capacity > 0 {
		hi = p.Capacity * unit.Rate(hiNum) / unit.Rate(hiDen)
	}
	if lo <= 0 || hi <= lo {
		return 0, 0, fmt.Errorf("need a rate bracket (RateLo < RateHi) or a Capacity to derive one (got %v, %v)", lo, hi)
	}
	return lo, hi, nil
}
