// Package crosstraffic implements the background-traffic models the paper
// evaluates against: Constant-Bit-Rate (periodic), Poisson, and Pareto
// ON-OFF sources (Figure 3), with configurable packet-size distributions
// (Table 1).
//
// All models share a Stream configuration (long-run average rate, packet
// sizes, packet kind) so experiments can vary burstiness while holding
// the mean avail-bw fixed — the controlled comparison at the heart of the
// "ignoring cross-traffic burstiness" pitfall.
//
// Every source keeps one event pending; CBR, Poisson and ParetoArrivals
// hand each packet to the link from that event (sim.InjectThen), while
// ParetoOnOff lays a burst down as Inject events.
package crosstraffic

import (
	"fmt"
	"time"

	"abw/internal/rng"
	"abw/internal/sim"
	"abw/internal/unit"
)

// newPacket builds one pooled cross-traffic packet: it comes from the
// simulation's free list and is recycled after delivery, so
// steady-state generation allocates nothing.
func newPacket(s *sim.Sim, route []*sim.Link, size unit.Bytes, cfg Stream) *sim.Packet {
	p := s.NewPacket()
	p.Size, p.Kind, p.Flow, p.Route = size, cfg.Kind, cfg.Flow, route
	return p
}

// emit sends one packet from inside the source's event, now, and
// re-arms step at next unless the source ends before then.
func emit(s *sim.Sim, route []*sim.Link, size unit.Bytes, cfg Stream, next, until time.Duration, step func()) {
	if next >= until {
		step = nil
	}
	s.InjectThen(newPacket(s, route, size, cfg), next, step)
}

// Stream describes the target long-run behaviour of a traffic source.
type Stream struct {
	// Rate is the long-run average rate.
	Rate unit.Rate
	// Sizes draws packet sizes; FixedSize(1500) if nil.
	Sizes rng.SizeDist
	// Kind tags generated packets; defaults to sim.KindCross.
	Kind sim.Kind
	// Flow labels the packets' flow ID.
	Flow int
}

func (c Stream) sizes() rng.SizeDist {
	if c.Sizes == nil {
		return rng.FixedSize(1500)
	}
	return c.Sizes
}

// Counter accumulates what a source actually emitted, for calibration
// checks.
type Counter struct {
	Packets int64
	Bytes   unit.Bytes
}

// AvgRate returns the average emission rate over the given span.
func (c *Counter) AvgRate(span time.Duration) unit.Rate {
	return unit.RateOf(c.Bytes, span)
}

// Model is a traffic source that can be instantiated on a simulation. Run
// schedules all its packet injections for [from, until) and returns a
// counter that fills in as the simulation executes.
type Model interface {
	Run(s *sim.Sim, route []*sim.Link, from, until time.Duration) *Counter
}

// --- CBR ---

type cbr struct{ cfg Stream }

// CBR returns a Constant-Bit-Rate (perfectly periodic) source: the
// closest packet-level approximation of the paper's fluid model.
func CBR(cfg Stream) Model {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("crosstraffic: CBR rate %v must be positive", cfg.Rate))
	}
	return &cbr{cfg: cfg}
}

func (m *cbr) Run(s *sim.Sim, route []*sim.Link, from, until time.Duration) *Counter {
	ctr := &Counter{}
	// CBR is deterministic by definition: a fixed packet size equal to
	// the distribution mean, on a perfectly periodic schedule.
	size := unit.Bytes(m.cfg.sizes().Mean())
	if size <= 0 {
		size = 1500
	}
	gap := unit.GapFor(size, m.cfg.Rate)
	// Schedule lazily from inside the simulation to avoid materializing
	// millions of events up front.
	var step func()
	next := from
	step = func() {
		if next >= until {
			return
		}
		ctr.Packets++
		ctr.Bytes += size
		next += gap
		emit(s, route, size, m.cfg, next, until, step)
	}
	s.At(from, step)
	return ctr
}

// --- Poisson ---

type poisson struct {
	cfg Stream
	r   *rng.Rand
}

// Poisson returns a source with exponential interarrivals whose mean
// matches the configured average rate given the mean packet size.
func Poisson(cfg Stream, r *rng.Rand) Model {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("crosstraffic: Poisson rate %v must be positive", cfg.Rate))
	}
	if r == nil {
		panic("crosstraffic: Poisson needs a random source")
	}
	return &poisson{cfg: cfg, r: r}
}

func (m *poisson) Run(s *sim.Sim, route []*sim.Link, from, until time.Duration) *Counter {
	ctr := &Counter{}
	meanSize := m.cfg.sizes().Mean()
	meanGapSec := meanSize * 8 / float64(m.cfg.Rate)
	var step func()
	at := from
	step = func() {
		if at >= until {
			return
		}
		size := unit.Bytes(m.cfg.sizes().Sample(m.r))
		ctr.Packets++
		ctr.Bytes += size
		at += time.Duration(m.r.Exp(meanGapSec) * 1e9)
		emit(s, route, size, m.cfg, at, until, step)
	}
	s.At(from, step)
	return ctr
}

// --- Pareto ON-OFF ---

// ParetoOnOffConfig tunes the heavy-tailed ON-OFF source beyond the
// shared Stream settings.
type ParetoOnOffConfig struct {
	Stream
	// Peak is the emission rate during ON periods; it must exceed the
	// long-run Rate. Defaults to 4x Rate.
	Peak unit.Rate
	// OffShape is the Pareto shape of OFF durations. The paper's
	// footnote uses 1.5; that is the default.
	OffShape float64
	// MaxOnPackets bounds the uniform ON length in packets; the paper's
	// footnote draws ON uniformly between 1 and 10 packets (default 10).
	MaxOnPackets int
	// OffCap truncates OFF periods at OffCap*xm to keep single sources
	// from dying for an entire run; 0 means unbounded (exact Pareto).
	OffCap float64
}

type paretoOnOff struct {
	cfg ParetoOnOffConfig
	r   *rng.Rand
}

// ParetoOnOff returns a heavy-tailed ON-OFF source: during ON it emits a
// uniform(1..MaxOnPackets) burst back-to-back at Peak rate, then stays
// silent for a Pareto(OffShape) duration calibrated so the long-run rate
// matches cfg.Rate. Aggregating many such sources yields self-similar
// traffic (Taqqu's theorem), which is why this is the paper's "most
// bursty" model.
func ParetoOnOff(cfg ParetoOnOffConfig, r *rng.Rand) Model {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("crosstraffic: ParetoOnOff rate %v must be positive", cfg.Rate))
	}
	if r == nil {
		panic("crosstraffic: ParetoOnOff needs a random source")
	}
	if cfg.Peak == 0 {
		cfg.Peak = 4 * cfg.Rate
	}
	if cfg.Peak <= cfg.Rate {
		panic(fmt.Sprintf("crosstraffic: peak %v must exceed mean rate %v", cfg.Peak, cfg.Rate))
	}
	if cfg.OffShape == 0 {
		cfg.OffShape = 1.5
	}
	if cfg.OffShape <= 1 {
		panic(fmt.Sprintf("crosstraffic: OFF shape %g must exceed 1 for a finite mean", cfg.OffShape))
	}
	if cfg.MaxOnPackets == 0 {
		cfg.MaxOnPackets = 10
	}
	if cfg.MaxOnPackets < 1 {
		panic("crosstraffic: MaxOnPackets must be >= 1")
	}
	return &paretoOnOff{cfg: cfg, r: r}
}

// offScale returns the Pareto minimum x_m for OFF periods such that the
// duty cycle matches Rate/Peak.
func (m *paretoOnOff) offScale() float64 {
	c := m.cfg
	meanOnPkts := float64(1+c.MaxOnPackets) / 2
	meanOnSec := meanOnPkts * c.sizes().Mean() * 8 / float64(c.Peak)
	meanOffSec := meanOnSec * float64(c.Peak-c.Rate) / float64(c.Rate)
	alpha := c.OffShape
	return meanOffSec * (alpha - 1) / alpha
}

func (m *paretoOnOff) Run(s *sim.Sim, route []*sim.Link, from, until time.Duration) *Counter {
	ctr := &Counter{}
	xm := m.offScale()
	var burst func()
	at := from
	burst = func() {
		if at >= until {
			return
		}
		n := 1 + m.r.Intn(m.cfg.MaxOnPackets)
		t := at
		for i := 0; i < n && t < until; i++ {
			size := unit.Bytes(m.cfg.sizes().Sample(m.r))
			s.Inject(newPacket(s, route, size, m.cfg.Stream), t)
			ctr.Packets++
			ctr.Bytes += size
			t += unit.GapFor(size, m.cfg.Peak)
		}
		var off float64
		if m.cfg.OffCap > 0 {
			off = m.r.BoundedPareto(m.cfg.OffShape, xm, m.cfg.OffCap*xm)
		} else {
			off = m.r.Pareto(m.cfg.OffShape, xm)
		}
		at = t + time.Duration(off*1e9)
		if at < until {
			s.At(at, burst)
		}
	}
	s.At(from, burst)
	return ctr
}

// --- Pareto interarrivals ---

type paretoArrivals struct {
	cfg   Stream
	shape float64
	r     *rng.Rand
}

// ParetoArrivals returns a source whose interarrival times are Pareto
// with the given shape (>1), matched to the configured mean rate — the
// "UDP sources with Pareto interarrivals" cross traffic of the paper's
// Figure 7. Heavier tails (shape closer to 1) give burstier traffic at
// the same mean.
func ParetoArrivals(cfg Stream, shape float64, r *rng.Rand) Model {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("crosstraffic: ParetoArrivals rate %v must be positive", cfg.Rate))
	}
	if shape <= 1 {
		panic(fmt.Sprintf("crosstraffic: ParetoArrivals shape %g must exceed 1", shape))
	}
	if r == nil {
		panic("crosstraffic: ParetoArrivals needs a random source")
	}
	return &paretoArrivals{cfg: cfg, shape: shape, r: r}
}

func (m *paretoArrivals) Run(s *sim.Sim, route []*sim.Link, from, until time.Duration) *Counter {
	ctr := &Counter{}
	meanGapSec := m.cfg.sizes().Mean() * 8 / float64(m.cfg.Rate)
	xm := meanGapSec * (m.shape - 1) / m.shape
	var step func()
	at := from
	step = func() {
		if at >= until {
			return
		}
		size := unit.Bytes(m.cfg.sizes().Sample(m.r))
		ctr.Packets++
		ctr.Bytes += size
		at += time.Duration(m.r.Pareto(m.shape, xm) * 1e9)
		emit(s, route, size, m.cfg, at, until, step)
	}
	s.At(from, step)
	return ctr
}
