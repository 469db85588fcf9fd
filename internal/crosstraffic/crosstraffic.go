// Package crosstraffic implements the background-traffic models the paper
// evaluates against: Constant-Bit-Rate (periodic), Poisson, and Pareto
// ON-OFF sources (Figure 3), with configurable packet-size distributions
// (Table 1).
//
// All models share a Stream configuration (long-run average rate and
// packet sizes) so experiments can vary burstiness while holding the
// mean avail-bw fixed — the controlled comparison at the heart of the
// "ignoring cross-traffic burstiness" pitfall.
//
// The models differ only in their arrival process. Each yields a
// Process, a pull generator of packet times and sizes, and sim.Feed is
// how a Process's packets enter a link: one feed per source, at most one
// event pending per feed, and none on a link that folds it.
package crosstraffic

import (
	"fmt"
	"time"

	"abw/internal/rng"
	"abw/internal/trace"
	"abw/internal/unit"
)

// Process is one source's arrival process as a pull generator: Next
// returns the next packet's time and size, times non-decreasing, until
// ok is false. A Process makes its random draws in packet order and
// none for a packet before the Next that returns it, so sim.Feed can
// pull one element ahead without disturbing the sequence.
type Process interface {
	Next() (at time.Duration, size unit.Bytes, ok bool)
}

// Model is a traffic model. Over returns its packets in [from, until)
// as a Process, which draws nothing before its first Next.
type Model interface {
	Over(from, until time.Duration) Process
}

// Stream describes the target long-run behaviour of a traffic source.
type Stream struct {
	// Rate is the long-run average rate.
	Rate unit.Rate
	// Sizes draws packet sizes; FixedSize(1500) if nil.
	Sizes rng.SizeDist
}

func (c Stream) sizes() rng.SizeDist {
	if c.Sizes == nil {
		return rng.FixedSize(1500)
	}
	return c.Sizes
}

// Chain joins processes over consecutive windows into one: ps[k+1] is
// first pulled once ps[k] is exhausted, so the rate segments of one
// source can share a random stream and still draw from it in the order
// they emit.
func Chain(ps ...Process) Process { return &chain{ps} }

type chain struct{ ps []Process }

func (c *chain) Next() (time.Duration, unit.Bytes, bool) {
	for len(c.ps) > 0 {
		if at, size, ok := c.ps[0].Next(); ok {
			return at, size, true
		}
		c.ps = c.ps[1:]
	}
	return 0, 0, false
}

// renewal is a Model whose packets are drawn one at a time: draw
// returns a packet's size and then the gap to its successor.
type renewal func() (size unit.Bytes, gap time.Duration)

func (draw renewal) Over(from, until time.Duration) Process {
	return &renewalProc{draw: draw, t: from, until: until}
}

type renewalProc struct {
	draw     renewal
	t, until time.Duration
}

func (p *renewalProc) Next() (time.Duration, unit.Bytes, bool) {
	if p.t >= p.until {
		return 0, 0, false
	}
	at := p.t
	size, gap := p.draw()
	p.t += gap
	return at, size, true
}

// --- CBR ---

// CBR returns a Constant-Bit-Rate (perfectly periodic) source: the
// closest packet-level approximation of the paper's fluid model.
func CBR(cfg Stream) Model {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("crosstraffic: CBR rate %v must be positive", cfg.Rate))
	}
	// CBR is deterministic by definition: a fixed packet size equal to
	// the distribution mean, on a perfectly periodic schedule.
	size := unit.Bytes(cfg.sizes().Mean())
	if size <= 0 {
		size = 1500
	}
	gap := unit.GapFor(size, cfg.Rate)
	return renewal(func() (unit.Bytes, time.Duration) { return size, gap })
}

// --- Poisson ---

// Poisson returns a source with exponential interarrivals whose mean
// matches the configured average rate given the mean packet size.
func Poisson(cfg Stream, r *rng.Rand) Model {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("crosstraffic: Poisson rate %v must be positive", cfg.Rate))
	}
	if r == nil {
		panic("crosstraffic: Poisson needs a random source")
	}
	sizes := cfg.sizes()
	meanGapSec := sizes.Mean() * 8 / float64(cfg.Rate)
	return renewal(func() (unit.Bytes, time.Duration) {
		size := unit.Bytes(sizes.Sample(r))
		return size, time.Duration(r.Exp(meanGapSec) * 1e9)
	})
}

// --- Pareto ON-OFF ---

// ParetoOnOffConfig tunes the heavy-tailed ON-OFF source beyond the
// shared Stream settings.
type ParetoOnOffConfig struct {
	Stream
	// OffCap truncates OFF periods at OffCap*xm to keep single sources
	// from dying for an entire run; 0 means unbounded (exact Pareto).
	OffCap float64
}

// The paper's footnote: ON lasts uniformly 1 to maxOnPackets packets,
// and OFF durations are Pareto with shape offShape. A source emits its
// ON burst at peakFactor times its long-run rate.
const (
	maxOnPackets         = 10
	offShape     float64 = 1.5
	peakFactor           = 4
)

type paretoOnOff struct {
	cfg  ParetoOnOffConfig
	peak unit.Rate // the emission rate during ON periods
	r    *rng.Rand
}

// ParetoOnOff returns a heavy-tailed ON-OFF source: during ON it emits a
// uniform(1..maxOnPackets) burst back-to-back at peakFactor × cfg.Rate,
// then stays silent for a Pareto(offShape) duration calibrated so the
// long-run rate matches cfg.Rate. Aggregating many such sources yields
// self-similar traffic (Taqqu's theorem), which is why this is the
// paper's "most bursty" model.
func ParetoOnOff(cfg ParetoOnOffConfig, r *rng.Rand) Model {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("crosstraffic: ParetoOnOff rate %v must be positive", cfg.Rate))
	}
	if r == nil {
		panic("crosstraffic: ParetoOnOff needs a random source")
	}
	cfg.Sizes = cfg.sizes()
	return &paretoOnOff{cfg: cfg, peak: peakFactor * cfg.Rate, r: r}
}

// offScale returns the Pareto minimum x_m for OFF periods such that the
// duty cycle matches Rate/peak.
func (m *paretoOnOff) offScale() float64 {
	c := m.cfg
	meanOnPkts := float64(1+maxOnPackets) / 2
	meanOnSec := meanOnPkts * c.Sizes.Mean() * 8 / float64(m.peak)
	meanOffSec := meanOnSec * float64(m.peak-c.Rate) / float64(c.Rate)
	alpha := offShape
	return meanOffSec * (alpha - 1) / alpha
}

func (m *paretoOnOff) Over(from, until time.Duration) Process {
	return &onOff{m: m, xm: m.offScale(), t: from, until: until}
}

// onOff is one window of a ParetoOnOff source. A burst draws its
// length when its first packet is pulled, each packet's size when that
// packet is, and its OFF period with the packet that ends it — the
// n-th, or the last one before until.
type onOff struct {
	m        *paretoOnOff
	xm       float64
	t, until time.Duration // the next packet, or between bursts the next burst's start
	left     int           // packets left in the current burst; 0 between bursts
}

func (p *onOff) Next() (time.Duration, unit.Bytes, bool) {
	c, r := &p.m.cfg, p.m.r
	if p.left == 0 {
		if p.t >= p.until {
			return 0, 0, false
		}
		p.left = 1 + r.Intn(maxOnPackets)
	}
	at, size := p.t, unit.Bytes(c.Sizes.Sample(r))
	p.t += unit.GapFor(size, p.m.peak)
	p.left--
	if p.left == 0 || p.t >= p.until {
		p.left = 0
		var off float64
		if c.OffCap > 0 {
			off = r.BoundedPareto(offShape, p.xm, c.OffCap*p.xm)
		} else {
			off = r.Pareto(offShape, p.xm)
		}
		p.t += time.Duration(off * 1e9)
	}
	return at, size, true
}

// --- Pareto interarrivals ---

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
	sizes := cfg.sizes()
	meanGapSec := sizes.Mean() * 8 / float64(cfg.Rate)
	xm := meanGapSec * (shape - 1) / shape
	return renewal(func() (unit.Bytes, time.Duration) {
		size := unit.Bytes(sizes.Sample(r))
		return size, time.Duration(r.Pareto(shape, xm) * 1e9)
	})
}

// --- LRD trace replay ---

// Tiles replays the fGn stream tr tiled over [0, until): tile k is the
// stream's packets shifted by k·tr.Span(). The stream synthesizes
// packets only as they are pulled and retains them, so every tile reads
// the same packets. A stream with no packets ends at once: the source
// is silent, not an error.
func Tiles(tr *trace.FGNStream, until time.Duration) Process {
	return &tiles{tr: tr, until: until}
}

type tiles struct {
	tr           *trace.FGNStream
	start, until time.Duration // start is the current tile's offset
	i            int           // the current tile's next packet
}

func (p *tiles) Next() (time.Duration, unit.Bytes, bool) {
	pk, ok := p.tr.Packet(p.i)
	if !ok && p.i > 0 { // the tile is done: start the next one
		p.start += p.tr.Span()
		p.i = 0
		pk, ok = p.tr.Packet(0)
	}
	if !ok || p.start+pk.At >= p.until {
		return 0, 0, false
	}
	p.i++
	return p.start + pk.At, pk.Size, true
}
