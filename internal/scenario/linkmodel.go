package scenario

import (
	"fmt"
	"time"

	"abw/internal/rng"
	"abw/internal/sim"
	"abw/internal/unit"
)

// This file is the declarative face of the simulator's Internet-
// realistic link models: per-hop queue disciplines, random loss,
// bounded reordering and time-varying capacity, expressed as plain
// Spec fields and wired onto the compiled links. Every feature is
// off by default, and all feature randomness is derived with
// rng.Derive under stable per-hop labels — never from the root
// source stream — so adding a feature to one hop perturbs nothing
// else and pre-existing scenarios stay bit-identical.

// QueueKind selects a hop's queue discipline.
type QueueKind int

// Queue disciplines.
const (
	// QueueFIFO is plain FIFO tail-drop — the default, served by the
	// simulator's zero-allocation fast path.
	QueueFIFO QueueKind = iota
	// QueueRED drops probabilistically as the average queue grows
	// (Random Early Detection).
	QueueRED
	// QueueCoDel drops from the head when packet sojourn time exceeds
	// the target for a full interval (Controlled Delay).
	QueueCoDel
)

// String names the queue kind.
func (k QueueKind) String() string {
	switch k {
	case QueueFIFO:
		return "FIFO"
	case QueueRED:
		return "RED"
	case QueueCoDel:
		return "CoDel"
	default:
		return fmt.Sprintf("QueueKind(%d)", int(k))
	}
}

// Queue configures a hop's queue discipline. The zero value is FIFO
// tail-drop. RED/CoDel zero configs take the sim package's defaults.
type Queue struct {
	Kind QueueKind
	// RED overrides the RED parameters when Kind is QueueRED.
	RED sim.REDConfig
	// CoDel overrides the CoDel parameters when Kind is QueueCoDel.
	CoDel sim.CoDelConfig
}

// LossKind selects a hop's random-loss process.
type LossKind int

// Loss models.
const (
	// LossNone disables random loss (the default); packets are only
	// dropped by the queue.
	LossNone LossKind = iota
	// LossBernoulli drops each packet independently with probability
	// Loss.Rate.
	LossBernoulli
	// LossGilbertElliott drops in bursts per the two-state Gilbert–
	// Elliott chain in Loss.GilbertElliott.
	LossGilbertElliott
)

// String names the loss kind.
func (k LossKind) String() string {
	switch k {
	case LossNone:
		return "none"
	case LossBernoulli:
		return "Bernoulli"
	case LossGilbertElliott:
		return "Gilbert–Elliott"
	default:
		return fmt.Sprintf("LossKind(%d)", int(k))
	}
}

// Loss configures a hop's random transmission loss, applied at the
// link input before queueing. The zero value is no loss.
type Loss struct {
	Kind LossKind
	// Rate is the Bernoulli per-packet drop probability in [0, 1).
	Rate float64
	// GilbertElliott parameterizes the bursty chain; zero fields take
	// the sim package's defaults.
	GilbertElliott sim.GilbertElliottConfig
}

// Reorder configures bounded packet reordering on a hop: every packet
// gets independent uniform extra propagation delay in [0, Jitter), so
// packets can overtake within that bound. The zero value is in-order
// delivery.
type Reorder struct {
	Jitter time.Duration
}

// hopLabel derives the feature rng label for hop h ("hop3/red", ...).
func hopLabel(h int, feature string) string { return fmt.Sprintf("hop%d/%s", h, feature) }

// capturePanic runs f, converting a panic into an error. The sim
// constructors validate by panicking (their callers pass compile-time
// constants); Compile's contract is to return errors for bad specs.
func capturePanic(f func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	f()
	return nil
}

// applyLinkModels wires hop h's queue discipline, loss model, jitter
// and capacity schedule onto its compiled link, and returns the hop's
// stationary loss probability (0 without a loss model) for the analytic
// ground-truth accounting.
func applyLinkModels(l *sim.Link, h int, hop Hop, seed uint64) (lossMean float64, err error) {
	switch hop.Queue.Kind {
	case QueueFIFO:
		// The default fast path; an explicitly-configured RED/CoDel
		// struct on a FIFO hop is ignored by design.
	case QueueRED:
		err = capturePanic(func() {
			l.SetDiscipline(sim.NewRED(hop.Queue.RED, rng.Derive(seed, hopLabel(h, "red"))))
		})
	case QueueCoDel:
		err = capturePanic(func() {
			l.SetDiscipline(sim.NewCoDel(hop.Queue.CoDel))
		})
	default:
		err = fmt.Errorf("unknown queue kind %v", hop.Queue.Kind)
	}
	if err != nil {
		return 0, fmt.Errorf("scenario: hop %d: %w", h, err)
	}

	switch hop.Loss.Kind {
	case LossNone:
	case LossBernoulli:
		err = capturePanic(func() {
			m := sim.NewBernoulliLoss(hop.Loss.Rate, rng.Derive(seed, hopLabel(h, "loss")))
			l.SetLoss(m)
			lossMean = m.MeanRate()
		})
	case LossGilbertElliott:
		err = capturePanic(func() {
			m := sim.NewGilbertElliott(hop.Loss.GilbertElliott, rng.Derive(seed, hopLabel(h, "loss")))
			l.SetLoss(m)
			lossMean = m.MeanRate()
		})
	default:
		err = fmt.Errorf("unknown loss kind %v", hop.Loss.Kind)
	}
	if err != nil {
		return 0, fmt.Errorf("scenario: hop %d: %w", h, err)
	}

	if hop.Reorder.Jitter < 0 {
		return 0, fmt.Errorf("scenario: hop %d: negative reorder jitter %v", h, hop.Reorder.Jitter)
	}
	if hop.Reorder.Jitter > 0 {
		l.SetJitter(hop.Reorder.Jitter, rng.Derive(seed, hopLabel(h, "jitter")))
	}

	if len(hop.CapacitySteps) > 0 {
		l.SetCapacitySchedule(capacitySteps(hop.CapacitySteps)) // validated by Compile
	}
	return lossMean, nil
}

// capacitySteps converts the spec's RateStep profile to the simulator's
// form.
func capacitySteps(steps []RateStep) []sim.CapacityStep {
	out := make([]sim.CapacityStep, len(steps))
	for i, st := range steps {
		out[i] = sim.CapacityStep{At: st.At, Rate: st.Rate}
	}
	return out
}

// firstCapacity returns the rate the hop's link starts at: the first
// step of its capacity profile, or its fixed Capacity.
func (hop Hop) firstCapacity() unit.Rate {
	if len(hop.CapacitySteps) > 0 {
		return hop.CapacitySteps[0].Rate
	}
	return hop.Capacity
}

// effectiveCapacity returns the hop's capacity for analytic ground
// truth over [from, to): the time-weighted mean of its capacity profile
// over the window, or the fixed Capacity without one.
func (hop Hop) effectiveCapacity(from, to time.Duration) unit.Rate {
	if len(hop.CapacitySteps) == 0 {
		return hop.Capacity
	}
	return sim.MeanCapacity(capacitySteps(hop.CapacitySteps), from, to)
}
