package sim

import (
	"fmt"
	"math"
	"time"

	"abw/internal/unit"
)

// CapacityStep is one segment of a piecewise-constant link-capacity
// profile: the link transmits at Rate from At until the next step (the
// last step extends forever). Variable capacity is the model for
// wireless fading and rate-adaptive links — the condition the paper's
// fixed-capacity tools have no answer for.
type CapacityStep struct {
	At   time.Duration
	Rate unit.Rate
}

// ValidateCapacitySteps checks a capacity profile: non-empty, first
// step at time 0, strictly increasing step times, positive rates.
func ValidateCapacitySteps(steps []CapacityStep) error {
	if len(steps) == 0 {
		return fmt.Errorf("sim: a capacity schedule needs at least one step")
	}
	if steps[0].At != 0 {
		return fmt.Errorf("sim: the first capacity step must be at 0 (got %v)", steps[0].At)
	}
	for i, st := range steps {
		if st.Rate <= 0 {
			return fmt.Errorf("sim: capacity step %d rate %v must be positive", i, st.Rate)
		}
		if i > 0 && st.At <= steps[i-1].At {
			return fmt.Errorf("sim: capacity steps must be strictly increasing in time (step %d at %v after %v)",
				i, st.At, steps[i-1].At)
		}
	}
	return nil
}

// MeanCapacity returns the time-weighted mean rate of the profile over
// [from, to), with the last step extending forever — the capacity that
// analytic ground truth uses over a window. It panics on an invalid
// schedule or an empty window.
func MeanCapacity(steps []CapacityStep, from, to time.Duration) unit.Rate {
	if err := ValidateCapacitySteps(steps); err != nil {
		panic(err)
	}
	if to <= from {
		panic(fmt.Sprintf("sim: MeanCapacity window [%v, %v) is empty", from, to))
	}
	return unit.Rate(capIntegralBits(steps, from, to) / (to - from).Seconds())
}

// capIntegralBits returns ∫C(s)ds in bits over [from, to) for a valid
// step profile (last step extends forever).
func capIntegralBits(steps []CapacityStep, from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	var total float64
	for i, st := range steps {
		if st.At >= to {
			break
		}
		segEnd := to
		if i+1 < len(steps) && steps[i+1].At < to {
			segEnd = steps[i+1].At
		}
		lo, hi := st.At, segEnd
		if lo < from {
			lo = from
		}
		if hi > lo {
			total += float64(st.Rate) * (hi - lo).Seconds()
		}
	}
	return total
}

// SetCapacitySchedule drives the link's capacity as a piecewise-
// constant process. Rate changes take effect for subsequent
// transmissions: a packet already in service completes at the rate it
// started with (the store-and-forward analogue of a modem retraining
// between frames). Call it at setup time, before the simulation runs.
//
// It panics on an invalid schedule (ValidateCapacitySteps) or when the
// simulation clock has already passed the first step.
func (l *Link) SetCapacitySchedule(steps []CapacityStep) {
	l.mustNotFold("SetCapacitySchedule")
	if err := ValidateCapacitySteps(steps); err != nil {
		panic(err)
	}
	if l.sim.now > 0 {
		panic(fmt.Sprintf("sim: capacity schedule installed at t=%v; install at setup time", l.sim.now))
	}
	own := make([]CapacityStep, len(steps))
	copy(own, steps)
	l.Capacity = own[0].Rate
	l.capSteps = own
	l.capSeq = make([]uint64, len(own))
	for i := range l.capSeq {
		l.capSeq[i] = math.MaxUint64 // not scheduled yet
	}
	// Steps are chained lazily: each event applies one rate and
	// schedules the next, so a long fading schedule costs one pending
	// event at a time, not len(steps) heap entries up front.
	// A folding link reads the step numbers to order a step against a
	// fed arrival at its instant.
	var apply func(i int)
	next := func(i int) {
		l.capSeq[i] = l.sim.q.ReserveSeq(0)
		l.sim.At(own[i].At, func() { apply(i) })
	}
	apply = func(i int) {
		l.sim.stats.StepEvents++
		l.Capacity, l.capIdx = own[i].Rate, i
		if i+1 < len(own) {
			next(i + 1)
		}
	}
	if len(own) > 1 {
		next(1)
	}
}

// CapacitySchedule returns the installed capacity profile (nil for a
// fixed-capacity link). Shared slice; treat as read-only.
func (l *Link) CapacitySchedule() []CapacityStep { return l.capSteps }
