package sim

import (
	"fmt"

	"abw/internal/rng"
)

// LossModel is a random packet-loss process applied at a link's input,
// before queueing — the model for transmission loss (wireless bit
// errors, policers) as opposed to congestive queue drops, which the
// buffer bound and the queue discipline produce. Lost packets are
// counted separately (Link.Lost) so experiments can attribute every
// missing packet to its cause.
type LossModel interface {
	// Name identifies the model in diagnostics ("bernoulli", "gilbert").
	Name() string
	// Lose reports whether this arrival is killed by the loss process.
	// It is called exactly once per arrival, in arrival order, so a
	// seeded model is exactly reproducible.
	Lose() bool
	// MeanRate returns the stationary loss probability — the analytic
	// hook ground-truth accounting uses to convert offered load into
	// carried load.
	MeanRate() float64
}

// bernoulli drops each packet independently with fixed probability.
type bernoulli struct {
	p float64
	r *rng.Rand
}

// NewBernoulliLoss returns an independent (Bernoulli) loss process
// with per-packet drop probability p. It panics on p outside [0, 1)
// or a nil random source.
func NewBernoulliLoss(p float64, r *rng.Rand) LossModel {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("sim: Bernoulli loss probability %g outside [0, 1)", p))
	}
	if r == nil {
		panic("sim: Bernoulli loss needs a random source")
	}
	return &bernoulli{p: p, r: r}
}

func (b *bernoulli) Name() string      { return "bernoulli" }
func (b *bernoulli) Lose() bool        { return b.r.Float64() < b.p }
func (b *bernoulli) MeanRate() float64 { return b.p }

// GilbertElliottConfig parameterizes the two-state bursty loss chain:
// a Good and a Bad state with per-arrival transition probabilities and
// a per-state loss probability. The classic model for wireless fading
// and route-flap loss bursts, where losses cluster instead of arriving
// independently.
type GilbertElliottConfig struct {
	// PGoodBad and PBadGood are the per-arrival transition
	// probabilities Good→Bad and Bad→Good (defaults 0.005 and 0.1:
	// mean burst of 10 packets, ~4.8% of packets in Bad).
	PGoodBad, PBadGood float64
	// LossGood and LossBad are the drop probabilities within each
	// state (defaults 0 and 0.5).
	LossGood, LossBad float64
}

func (c GilbertElliottConfig) withDefaults() GilbertElliottConfig {
	if c.PGoodBad == 0 {
		c.PGoodBad = 0.005
	}
	if c.PBadGood == 0 {
		c.PBadGood = 0.1
	}
	if c.LossBad == 0 {
		c.LossBad = 0.5
	}
	return c
}

// gilbertElliott is the seeded two-state chain. Every arrival draws
// exactly two variates (transition, then loss) so the stream of
// random numbers consumed is independent of the path taken.
type gilbertElliott struct {
	cfg GilbertElliottConfig
	r   *rng.Rand
	bad bool
}

// NewGilbertElliott returns a bursty Gilbert–Elliott loss process.
// It panics on probabilities outside [0, 1] (loss probabilities must
// additionally be < 1) or a nil random source.
func NewGilbertElliott(cfg GilbertElliottConfig, r *rng.Rand) LossModel {
	cfg = cfg.withDefaults()
	for _, p := range []float64{cfg.PGoodBad, cfg.PBadGood} {
		if p <= 0 || p > 1 {
			panic(fmt.Sprintf("sim: Gilbert–Elliott transition probability %g outside (0, 1]", p))
		}
	}
	for _, p := range []float64{cfg.LossGood, cfg.LossBad} {
		if p < 0 || p >= 1 {
			panic(fmt.Sprintf("sim: Gilbert–Elliott loss probability %g outside [0, 1)", p))
		}
	}
	if r == nil {
		panic("sim: Gilbert–Elliott loss needs a random source")
	}
	return &gilbertElliott{cfg: cfg, r: r}
}

func (g *gilbertElliott) Name() string { return "gilbert" }

func (g *gilbertElliott) Lose() bool {
	flip := g.r.Float64()
	if g.bad {
		if flip < g.cfg.PBadGood {
			g.bad = false
		}
	} else if flip < g.cfg.PGoodBad {
		g.bad = true
	}
	p := g.cfg.LossGood
	if g.bad {
		p = g.cfg.LossBad
	}
	return g.r.Float64() < p
}

// MeanRate is the stationary loss probability of the chain:
// π_bad·LossBad + π_good·LossGood with π_bad = PGB/(PGB+PBG).
func (g *gilbertElliott) MeanRate() float64 {
	piBad := g.cfg.PGoodBad / (g.cfg.PGoodBad + g.cfg.PBadGood)
	return piBad*g.cfg.LossBad + (1-piBad)*g.cfg.LossGood
}
