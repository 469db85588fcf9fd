package tcp

import (
	"fmt"
	"time"

	"abw/internal/rng"
	"abw/internal/sim"
	"abw/internal/unit"
)

// MiceConfig parameterizes an aggregate of short TCP transfers — the
// "many short TCP transfers" cross traffic of Figure 7. Flows arrive as
// a Poisson process; flow sizes are bounded-Pareto, the canonical
// heavy-tailed "mice and elephants" mix.
type MiceConfig struct {
	// OfferedLoad is the target long-run rate of the aggregate.
	OfferedLoad unit.Rate
	// MeanFlowBytes is the mean transfer size (default 40 kB).
	MeanFlowBytes unit.Bytes
}

// Flow sizes are bounded-Pareto with shape miceShape, capped at
// maxFlowFactor·MeanFlowBytes and floored at one segment; each flow
// advertises a miceRcvWnd-segment window. miceShape is a typed float64
// so that miceShape − 1 is taken on the float64 value of 1.3, not
// folded exactly to 0.3.
const (
	miceShape     float64 = 1.3
	maxFlowFactor         = 200
	miceRcvWnd            = 32
)

func (c MiceConfig) withDefaults() (MiceConfig, error) {
	if c.OfferedLoad <= 0 {
		return c, fmt.Errorf("tcp: mice offered load must be positive")
	}
	if c.MeanFlowBytes == 0 {
		c.MeanFlowBytes = 40_000
	}
	if c.MeanFlowBytes <= 0 {
		return c, fmt.Errorf("tcp: mean flow size must be positive")
	}
	return c, nil
}

// Mice is the short-flow workload generator. It keeps counters, not
// connections: a finished flow is garbage as soon as its last event
// has fired.
type Mice struct {
	cfg   MiceConfig
	flows int // connections started
	acked int // segments acked across all flows
}

// NewMice validates the configuration.
func NewMice(cfg MiceConfig) (*Mice, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Mice{cfg: c}, nil
}

// Run schedules flow arrivals on [from, until). Each flow is a
// size-limited TCP connection over the given routes. flowBase offsets
// the flow IDs so mice do not collide with other connections' IDs.
func (m *Mice) Run(s *sim.Sim, fwd, rev []*sim.Link, from, until time.Duration, flowBase int, r *rng.Rand) error {
	if s == nil || len(fwd) == 0 {
		return fmt.Errorf("tcp: mice need a simulation and a forward route")
	}
	if r == nil {
		return fmt.Errorf("tcp: mice need a random source")
	}
	c := m.cfg
	// Poisson flow arrivals at rate λ = load / mean size.
	meanGapSec := float64(c.MeanFlowBytes.Bits()) / float64(c.OfferedLoad)
	// Bounded-Pareto xm from the mean: for shape a and cap b,
	// E = a·xm/(a−1)·(1−(xm/b)^{a−1})/(1−(xm/b)^a) ≈ a·xm/(a−1) when
	// b >> xm; we use the simple form and rely on the cap being large.
	xm := float64(c.MeanFlowBytes) * (miceShape - 1) / miceShape
	maxFlowBytes := maxFlowFactor * c.MeanFlowBytes
	flow := flowBase
	var step func()
	at := from
	step = func() {
		if at >= until {
			return
		}
		size := unit.Bytes(r.BoundedPareto(miceShape, xm, float64(maxFlowBytes)))
		if size < mss {
			size = mss
		}
		conn, err := New(s, fwd, rev, flow, Config{RcvWnd: miceRcvWnd, maxBytes: size, acked: &m.acked})
		if err == nil {
			m.flows++
			conn.Start(s.Now())
		}
		flow++
		at += time.Duration(r.Exp(meanGapSec) * 1e9)
		s.At(at, step)
	}
	s.At(from, step)
	return nil
}

// Flows returns the number of connections started so far.
func (m *Mice) Flows() int { return m.flows }

// AckedBytes returns the payload acked so far across all flows.
func (m *Mice) AckedBytes() unit.Bytes { return unit.Bytes(m.acked) * mss }
