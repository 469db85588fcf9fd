package crosstraffic

import (
	"testing"
	"time"

	"abw/internal/rng"
	"abw/internal/sim"
	"abw/internal/trace"
	"abw/internal/unit"
)

// The oracles: the source models and the LRD replayer as they stood
// before every open-loop source became a Process on Sim.Feed, each a
// chain of its own events. The Run bodies are theirs with two changes:
// a packet enters its link through a plain Inject at its instant (one
// source alone emits the same sequence however its ties are broken),
// and the flow is the oracle's own field, since Stream has none.

func oracleInject(s *sim.Sim, route []*sim.Link, size unit.Bytes, flow int, at time.Duration) {
	p := s.NewPacket()
	p.Size, p.Kind, p.Flow, p.Route = size, sim.KindCross, flow, route
	s.Inject(p, at)
}

// oracleEmit sends one packet from inside the source's event, now, and
// re-arms step at next unless the source ends before then.
func oracleEmit(s *sim.Sim, route []*sim.Link, size unit.Bytes, flow int, next, until time.Duration, step func()) {
	oracleInject(s, route, size, flow, s.Now())
	if next < until {
		s.At(next, step)
	}
}

type oracleCBR struct {
	cfg  Stream
	flow int
}

func (m *oracleCBR) Run(s *sim.Sim, route []*sim.Link, from, until time.Duration) {
	size := unit.Bytes(m.cfg.sizes().Mean())
	if size <= 0 {
		size = 1500
	}
	gap := unit.GapFor(size, m.cfg.Rate)
	var step func()
	next := from
	step = func() {
		if next >= until {
			return
		}
		next += gap
		oracleEmit(s, route, size, m.flow, next, until, step)
	}
	s.At(from, step)
}

type oraclePoisson struct {
	cfg  Stream
	r    *rng.Rand
	flow int
}

func (m *oraclePoisson) Run(s *sim.Sim, route []*sim.Link, from, until time.Duration) {
	meanSize := m.cfg.sizes().Mean()
	meanGapSec := meanSize * 8 / float64(m.cfg.Rate)
	var step func()
	at := from
	step = func() {
		if at >= until {
			return
		}
		size := unit.Bytes(m.cfg.sizes().Sample(m.r))
		at += time.Duration(m.r.Exp(meanGapSec) * 1e9)
		oracleEmit(s, route, size, m.flow, at, until, step)
	}
	s.At(from, step)
}

type oracleParetoArrivals struct {
	cfg   Stream
	shape float64
	r     *rng.Rand
	flow  int
}

func (m *oracleParetoArrivals) Run(s *sim.Sim, route []*sim.Link, from, until time.Duration) {
	meanGapSec := m.cfg.sizes().Mean() * 8 / float64(m.cfg.Rate)
	xm := meanGapSec * (m.shape - 1) / m.shape
	var step func()
	at := from
	step = func() {
		if at >= until {
			return
		}
		size := unit.Bytes(m.cfg.sizes().Sample(m.r))
		at += time.Duration(m.r.Pareto(m.shape, xm) * 1e9)
		oracleEmit(s, route, size, m.flow, at, until, step)
	}
	s.At(from, step)
}

// oracleParetoOnOff lays each burst down as Inject events when the
// burst starts. It takes the model's defaults-resolved configuration
// and OFF scale from ParetoOnOff, whose constructor draws nothing.
type oracleParetoOnOff struct {
	m    *paretoOnOff
	flow int
}

func (o *oracleParetoOnOff) Run(s *sim.Sim, route []*sim.Link, from, until time.Duration) {
	m := o.m
	xm := m.offScale()
	var burst func()
	at := from
	burst = func() {
		if at >= until {
			return
		}
		n := 1 + m.r.Intn(maxOnPackets)
		t := at
		for i := 0; i < n && t < until; i++ {
			size := unit.Bytes(m.cfg.sizes().Sample(m.r))
			oracleInject(s, route, size, o.flow, t)
			t += unit.GapFor(size, m.peak)
		}
		var off float64
		if m.cfg.OffCap > 0 {
			off = m.r.BoundedPareto(offShape, xm, m.cfg.OffCap*xm)
		} else {
			off = m.r.Pareto(offShape, xm)
		}
		at = t + time.Duration(off*1e9)
		if at < until {
			s.At(at, burst)
		}
	}
	s.At(from, burst)
}

// eagerReplay lays a whole tile of the trace down at the tile boundary.
func eagerReplay(s *sim.Sim, route []*sim.Link, tr *trace.Trace, flow int, from, until time.Duration) {
	var tile func(start time.Duration)
	tile = func(start time.Duration) {
		if start >= until {
			return
		}
		for _, p := range tr.Packets() {
			at := start + p.At
			if at >= until {
				break
			}
			oracleInject(s, route, p.Size, flow, at)
		}
		if next := start + tr.Span; next < until {
			s.At(next, func() { tile(next) })
		}
	}
	tile(from)
}

// emissions runs start on a fresh simulation and returns what reached
// its one link, in arrival order.
func emissions(start func(s *sim.Sim, route []*sim.Link)) []served {
	s := sim.New()
	link := s.NewLink("hop0", unit.Gbps, time.Millisecond)
	log := &serviceLog{s: s}
	link.SetDiscipline(log)
	start(s, []*sim.Link{link})
	s.Run()
	return log.rows
}

// TestEmissionsMatchOracles: each model, fed as a Process, emits the
// oracle's packet sequence — instant, size and flow, row for row. The
// multi-segment cases share one random stream across their segments
// the way scenario.runSource builds them, so a Process that drew for
// segment 2 before segment 1 is exhausted would shift every draw after
// it; the ParetoOnOff one places its segment edge inside a burst, which
// the edge cuts. The LRD case crosses two tile boundaries.
//
// Teeth, applied by hand when this test was written (CHANGES.md has
// the failing rows): a chained Process that pulls segment 2's first
// packet as soon as segment 1 starts fails poisson-2seg, and a burst
// that draws its OFF period before its packets' sizes fails
// paretoonoff.
func TestEmissionsMatchOracles(t *testing.T) {
	const (
		horizon = 300 * time.Millisecond
		flow    = 1000
	)
	mix := rng.MustModalSizes(rng.Mode{Size: 40, Prob: 0.4}, rng.Mode{Size: 576, Prob: 0.3}, rng.Mode{Size: 1500, Prob: 0.3})
	onOff := func(rate unit.Rate, r *rng.Rand) *paretoOnOff {
		cfg := ParetoOnOffConfig{Stream: Stream{Rate: rate, Sizes: mix}, OffCap: 200}
		return ParetoOnOff(cfg, r).(*paretoOnOff)
	}
	// edge is the instant of a packet that follows its predecessor at
	// the peak gap in a one-segment run — a packet inside a burst. A
	// segment ending there cuts that burst: the segment draws exactly
	// what the one-segment run drew up to it.
	one := emissions(func(s *sim.Sim, route []*sim.Link) {
		(&oracleParetoOnOff{onOff(8*unit.Mbps, rng.New(14)), flow}).Run(s, route, 0, horizon)
	})
	var edge time.Duration
	for i := len(one) / 2; i < len(one) && edge == 0; i++ {
		if one[i].at-one[i-1].at == unit.GapFor(one[i-1].size, 32*unit.Mbps) {
			edge = one[i].at
		}
	}
	if edge == 0 {
		t.Fatal("no burst in the second half of the one-segment ParetoOnOff run")
	}
	fgn := trace.FGNConfig{Capacity: 20 * unit.Mbps, MeanRate: 8 * unit.Mbps, Span: 100 * time.Millisecond}

	cases := []struct {
		name    string
		oracle  func(s *sim.Sim, route []*sim.Link)
		process func() Process
	}{
		{"cbr", func(s *sim.Sim, route []*sim.Link) {
			(&oracleCBR{Stream{Rate: 10 * unit.Mbps}, flow}).Run(s, route, 0, horizon)
		}, func() Process { return CBR(Stream{Rate: 10 * unit.Mbps}).Over(0, horizon) }},
		{"poisson", func(s *sim.Sim, route []*sim.Link) {
			(&oraclePoisson{Stream{Rate: 8 * unit.Mbps, Sizes: mix}, rng.New(11), flow}).Run(s, route, 0, horizon)
		}, func() Process { return Poisson(Stream{Rate: 8 * unit.Mbps, Sizes: mix}, rng.New(11)).Over(0, horizon) }},
		{"paretoarrivals", func(s *sim.Sim, route []*sim.Link) {
			(&oracleParetoArrivals{Stream{Rate: 8 * unit.Mbps, Sizes: mix}, 1.5, rng.New(12), flow}).Run(s, route, 0, horizon)
		}, func() Process {
			return ParetoArrivals(Stream{Rate: 8 * unit.Mbps, Sizes: mix}, 1.5, rng.New(12)).Over(0, horizon)
		}},
		{"paretoonoff", func(s *sim.Sim, route []*sim.Link) {
			(&oracleParetoOnOff{onOff(8*unit.Mbps, rng.New(14)), flow}).Run(s, route, 0, horizon)
		}, func() Process { return onOff(8*unit.Mbps, rng.New(14)).Over(0, horizon) }},
		{"poisson-2seg", func(s *sim.Sim, route []*sim.Link) {
			r := rng.New(13)
			(&oraclePoisson{Stream{Rate: 5 * unit.Mbps, Sizes: mix}, r, flow}).Run(s, route, 0, horizon/2)
			(&oraclePoisson{Stream{Rate: 11 * unit.Mbps, Sizes: mix}, r, flow}).Run(s, route, horizon/2, horizon)
		}, func() Process {
			r := rng.New(13)
			return Chain(Poisson(Stream{Rate: 5 * unit.Mbps, Sizes: mix}, r).Over(0, horizon/2),
				Poisson(Stream{Rate: 11 * unit.Mbps, Sizes: mix}, r).Over(horizon/2, horizon))
		}},
		{"paretoonoff-2seg", func(s *sim.Sim, route []*sim.Link) {
			r := rng.New(14)
			(&oracleParetoOnOff{onOff(8*unit.Mbps, r), flow}).Run(s, route, 0, edge)
			(&oracleParetoOnOff{onOff(12*unit.Mbps, r), flow}).Run(s, route, edge, horizon)
		}, func() Process {
			r := rng.New(14)
			return Chain(onOff(8*unit.Mbps, r).Over(0, edge), onOff(12*unit.Mbps, r).Over(edge, horizon))
		}},
		{"lrd", func(s *sim.Sim, route []*sim.Link) {
			tr, err := trace.SynthesizeFGN(fgn, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			eagerReplay(s, route, tr, flow, 0, horizon)
		}, func() Process {
			stream, err := trace.NewFGNStream(fgn, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			return Tiles(stream, horizon)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := emissions(tc.oracle)
			got := emissions(func(s *sim.Sim, route []*sim.Link) {
				s.Feed(route, sim.KindCross, flow, tc.process().Next)
			})
			if len(want) < 100 {
				t.Fatalf("the oracle emitted only %d packets", len(want))
			}
			if last := want[len(want)-1].at; tc.name == "lrd" && last < 2*fgn.Span {
				t.Fatalf("the last LRD packet is at %v: the run did not cross two tile boundaries", last)
			}
			sameRows(t, "emissions vs the oracle's", got, want)
		})
	}
}
