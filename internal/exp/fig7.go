package exp

import (
	"fmt"
	"time"

	"abw/internal/runner"
	"abw/internal/scenario"
	"abw/internal/sim"
	"abw/internal/tcp"
	"abw/internal/unit"
)

// Figure7CrossType names the three cross-traffic flavors of Figure 7,
// using the paper's legend.
type Figure7CrossType string

// Figure 7's cross-traffic types.
const (
	// CrossParetoUDP: unresponsive UDP with Pareto interarrivals.
	CrossParetoUDP Figure7CrossType = "Pareto interarrivals"
	// CrossSizeLimited: an aggregate of many short ("size limited") TCP
	// transfers.
	CrossSizeLimited Figure7CrossType = "Size limited TCP"
	// CrossBufferLimited: a few persistent TCP transfers capped by
	// their advertised windows (socket "buffer limited").
	CrossBufferLimited Figure7CrossType = "Buffer limited TCP"
)

// Figure 7's setting: 35 Mbps of cross traffic on the paper's 50 Mbps
// link leaves A = 15 Mbps; the link buffers fig7BufferPkts packets, the
// path's two-way propagation delay is fig7RTT, and the buffer-limited
// curve runs fig7CrossConns persistent window-limited cross TCPs.
const (
	fig7CrossRate  = 35 * unit.Mbps
	fig7BufferPkts = 100
	fig7RTT        = 40 * time.Millisecond
	fig7CrossConns = 5
)

// fig7CrossTypes are Figure 7's curves.
var fig7CrossTypes = []Figure7CrossType{CrossParetoUDP, CrossSizeLimited, CrossBufferLimited}

// Figure7Config parameterizes the TCP-vs-avail-bw experiment.
type Figure7Config struct {
	// Windows is the Wr sweep in segments (default 2,4,...,512).
	Windows []int
	// Duration is virtual time per point (default 20 s; throughput is
	// measured after a 5 s warmup).
	Duration time.Duration
	Seed     uint64
}

// Figure7Series is one cross-traffic type's throughput curve.
type Figure7Series struct {
	CrossType Figure7CrossType
	Windows   []int
	// ThroughputMbps[i] is the bulk transfer's goodput at Windows[i].
	ThroughputMbps []float64
}

// At returns the throughput at a given window.
func (s *Figure7Series) At(wr int) (float64, bool) {
	for i, w := range s.Windows {
		if w == wr {
			return s.ThroughputMbps[i], true
		}
	}
	return 0, false
}

// Figure7Result is the experiment outcome.
type Figure7Result struct {
	Config Figure7Config
	// AvailBwMbps is the nominal avail-bw the paper draws as the
	// horizontal line.
	AvailBwMbps float64
	Series      []Figure7Series
}

// Figure7 regenerates the paper's Figure 7: bulk TCP throughput as a
// function of the receiver advertised window Wr under three cross
// traffic types. The paper's claim — the evidence behind its tenth
// pitfall — is that the TCP-throughput-vs-avail-bw difference can be
// positive or negative, depending on Wr and on how congestion-responsive
// the cross traffic is, so TCP throughput is not a validation target for
// avail-bw estimators.
func Figure7(c Figure7Config) (*Figure7Result, error) {
	if len(c.Windows) == 0 {
		c.Windows = []int{2, 4, 8, 16, 32, 64, 128, 256, 512}
	}
	if c.Duration == 0 {
		c.Duration = 20 * time.Second
	}
	res := &Figure7Result{
		Config:      c,
		AvailBwMbps: (paperCapacity - fig7CrossRate).MbpsOf(),
	}
	// Each (cross type, window) grid point is one runner job with its
	// own simulator, seeded from the experiment seed and grid indices.
	thru, err := runner.All(len(fig7CrossTypes)*len(c.Windows), func(job int) (float64, error) {
		ci, wi := job/len(c.Windows), job%len(c.Windows)
		ct, wr := fig7CrossTypes[ci], c.Windows[wi]
		src, err := fig7Source(ct)
		if err != nil {
			return 0, fmt.Errorf("exp: figure7: %w", err)
		}
		cpl, err := scenario.Compile(scenario.Spec{
			Horizon:          c.Duration + time.Second,
			Seed:             scenario.Seed(c.Seed + uint64(ci)*100000 + uint64(wi)*100),
			WithReverse:      true,
			ReversePropDelay: fig7RTT / 2,
			Hops: []scenario.Hop{{
				Capacity:  paperCapacity,
				Buffer:    fig7BufferPkts * 1500,
				PropDelay: fig7RTT / 2,
				Traffic:   []scenario.Source{src},
			}},
		})
		if err != nil {
			return 0, fmt.Errorf("exp: figure7: %w", err)
		}
		bulk, err := tcp.New(cpl.Sim, cpl.Path.Route(), []*sim.Link{cpl.Reverse}, 1, tcp.Config{RcvWnd: wr})
		if err != nil {
			return 0, fmt.Errorf("exp: figure7: %w", err)
		}
		bulk.Start(time.Second)
		// Goodput over [warmup, Duration): what the flow had acked by
		// each end of the window, read off the clock as it passes.
		warmup := c.Duration / 4
		cpl.Sim.RunUntil(warmup)
		before := bulk.AckedBytes()
		cpl.Sim.RunUntil(c.Duration)
		return unit.RateOf(bulk.AckedBytes()-before, c.Duration-warmup).MbpsOf(), nil
	})
	if err != nil {
		return nil, err
	}
	for ci, ct := range fig7CrossTypes {
		series := Figure7Series{CrossType: ct}
		for wi, wr := range c.Windows {
			series.Windows = append(series.Windows, wr)
			series.ThroughputMbps = append(series.ThroughputMbps, thru[ci*len(c.Windows)+wi])
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// fig7Source maps the chosen cross-traffic type onto a scenario
// source. The SplitLabel overrides pin the rng labels this experiment
// used before the scenario subsystem, keeping its numbers
// bit-identical.
func fig7Source(ct Figure7CrossType) (scenario.Source, error) {
	switch ct {
	case CrossParetoUDP:
		return scenario.Source{
			Kind: scenario.ParetoArrivals, Rate: fig7CrossRate,
			Shape: 1.9, SplitLabel: "udp", Flow: 500,
		}, nil
	case CrossSizeLimited:
		return scenario.Source{
			Kind: scenario.Mice, Rate: fig7CrossRate,
			SplitLabel: "mice", Flow: 1000,
		}, nil
	case CrossBufferLimited:
		// Windows sized so the aggregate uses ~CrossRate when alone:
		// per-conn rate = Wr·MSS·8/RTT.
		perConn := float64(fig7CrossRate) / fig7CrossConns
		wr := int(perConn * fig7RTT.Seconds() / (1460 * 8))
		if wr < 2 {
			wr = 2
		}
		return scenario.Source{
			Kind: scenario.BufferLimitedTCP, Rate: fig7CrossRate,
			Conns: fig7CrossConns, Window: wr, Flow: 100,
		}, nil
	default:
		return scenario.Source{}, fmt.Errorf("unknown cross type %q", ct)
	}
}

// Table renders the throughput curves against the avail-bw line.
func (r *Figure7Result) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 7: bulk TCP throughput vs receiver window (avail-bw = %.0f Mbps)", r.AvailBwMbps),
		Header: []string{"Wr (pkts)"},
		Notes: []string{
			"paper: the difference between TCP throughput and avail-bw can be positive or negative, " +
				"depending on Wr and on the congestion responsiveness of the cross traffic",
		},
	}
	for _, s := range r.Series {
		t.Header = append(t.Header, string(s.CrossType))
	}
	for i, wr := range r.Config.Windows {
		row := []string{fmt.Sprintf("%d", wr)}
		for _, s := range r.Series {
			row = append(row, f2(s.ThroughputMbps[i]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
