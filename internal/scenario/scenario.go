// Package scenario is the declarative scenario subsystem: the single
// place in the module where cross-traffic topologies are constructed.
// A Spec describes a heterogeneous path — per-hop capacity, buffer and
// propagation delay, each hop carrying an arbitrary mix of traffic
// sources (CBR, Poisson, Pareto ON-OFF, Pareto interarrivals, LRD
// trace replay, TCP mice, window-limited persistent TCP), optionally
// with a piecewise-constant rate profile for step/ramp avail-bw — and
// Compile realizes it on the discrete-event simulator with the
// analytic ground truth — the avail-bw of any hop over any window of
// the horizon, computed from the spec — and the tight-vs-narrow link
// distinction the paper's fifth pitfall turns on.
//
// The named catalog (catalog.go) mirrors the estimator registry: every
// condition the paper warns about is a nameable, reproducible scenario
// that any tool can be pointed at.
package scenario

import (
	"fmt"
	"time"

	"abw/internal/core"
	"abw/internal/crosstraffic"
	"abw/internal/rng"
	"abw/internal/sim"
	"abw/internal/tcp"
	"abw/internal/trace"
	"abw/internal/unit"
)

// Seed returns a pointer to v, for Spec.Seed: the pointer form makes
// seed 0 a valid explicit seed (nil means the default seed 1).
func Seed(v uint64) *uint64 { return &v }

// DefaultSeed is the seed used when Spec.Seed is nil.
const DefaultSeed uint64 = 1

// Kind selects a traffic-source model.
type Kind int

// Traffic-source models.
const (
	// CBR is a perfectly periodic source: the closest packet-level
	// approximation of the paper's fluid model.
	CBR Kind = iota
	// Poisson has exponential interarrivals at the configured mean rate.
	Poisson
	// ParetoOnOff is the paper's "most bursty" model: heavy-tailed
	// ON-OFF bursts (Figure 3).
	ParetoOnOff
	// ParetoArrivals has Pareto interarrival times (Figure 7's
	// unresponsive UDP cross traffic).
	ParetoArrivals
	// LRD replays a synthesized long-range-dependent packet trace
	// (fGn rate-modulated, exactly known Hurst parameter), tiled over
	// the horizon and, like every other model, realized one packet at
	// a time as the run reaches it.
	LRD
	// Mice is an aggregate of short TCP transfers: Poisson flow
	// arrivals, bounded-Pareto flow sizes (Figure 7's "size limited
	// TCP").
	Mice
	// BufferLimitedTCP is a fixed set of persistent TCP connections
	// capped by their advertised windows (Figure 7's "buffer limited
	// TCP"). Rate is the nominal aggregate used for ground-truth
	// accounting; the realized rate is congestion-responsive.
	BufferLimitedTCP
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case CBR:
		return "CBR"
	case Poisson:
		return "Poisson"
	case ParetoOnOff:
		return "Pareto ON-OFF"
	case ParetoArrivals:
		return "Pareto interarrivals"
	case LRD:
		return "LRD trace"
	case Mice:
		return "TCP mice"
	case BufferLimitedTCP:
		return "buffer-limited TCP"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// RateStep is one segment of a piecewise-constant rate profile: the
// source emits at Rate from At until the next step (or the horizon).
type RateStep struct {
	At   time.Duration
	Rate unit.Rate
}

// Source describes one traffic source on a hop. Zero fields take
// defaults; only Kind-relevant fields are consulted.
type Source struct {
	// Kind selects the model.
	Kind Kind
	// Rate is the long-run mean rate. For Mice it is the offered load;
	// for BufferLimitedTCP it is the nominal aggregate rate used for
	// ground-truth accounting (the realized rate is elastic).
	Rate unit.Rate
	// Steps, if set, replaces Rate with a piecewise-constant profile
	// (step/ramp avail-bw). The first step must be at 0. Only the
	// packet models (CBR, Poisson, ParetoOnOff, ParetoArrivals)
	// support profiles.
	Steps []RateStep
	// PktSize is the fixed packet size in bytes (default 1500; an LRD
	// source with neither PktSize nor Sizes set draws the trimodal
	// Internet mix, rng.InternetMix, instead).
	PktSize unit.Bytes
	// Sizes, if set, draws packet sizes and overrides PktSize.
	Sizes rng.SizeDist
	// Shape is the Pareto interarrival shape for ParetoArrivals
	// (default 1.9).
	Shape float64
	// Hurst is the LRD envelope's Hurst parameter (default 0.8).
	Hurst float64
	// MeanFlowBytes is the Mice mean transfer size (default 40 kB).
	MeanFlowBytes unit.Bytes
	// Conns is the BufferLimitedTCP connection count (default 1).
	Conns int
	// Window is the BufferLimitedTCP per-connection receiver window in
	// segments (default 32).
	Window int
	// SplitLabel overrides the rng derivation label (default
	// "hop<h>" for a hop's first source, "hop<h>.<j>" for the rest).
	// Experiments that predate this package pin their historical
	// labels through it so their numbers stay bit-identical.
	SplitLabel string
	// Flow labels the source's packets (0 = auto: 1000+hop for a
	// hop's first source). Purely diagnostic.
	Flow int
}

// Hop is one store-and-forward link of the path with the traffic it
// carries one-hop-persistently (enters at this link, exits after it —
// the paper's Figure 4 pattern).
type Hop struct {
	// Capacity is the link's transmission rate (required).
	Capacity unit.Rate
	// Buffer bounds the queue in bytes (0 = unbounded).
	Buffer unit.Bytes
	// PropDelay is the propagation latency (default 1 ms).
	PropDelay time.Duration
	// Traffic is the set of sources entering at this hop.
	Traffic []Source

	// Queue selects the hop's queue discipline (default FIFO tail-drop).
	Queue Queue
	// Loss adds a random transmission-loss process at the link input
	// (default none).
	Loss Loss
	// Reorder adds bounded random reordering via propagation jitter
	// (default in-order).
	Reorder Reorder
	// CapacitySteps, if set, makes the hop's capacity a piecewise-
	// constant process (wireless fading, rate adaptation). The first
	// step must be at 0; leave Capacity zero — the long-run effective
	// capacity used for ground truth is the profile's time-weighted
	// mean over the horizon.
	CapacitySteps []RateStep
}

// Spec is a declarative scenario: a heterogeneous path plus the
// schedule of every traffic source on it. Compile realizes it.
type Spec struct {
	// Hops is the sender-to-receiver link sequence (at least one).
	Hops []Hop
	// Horizon is how long traffic is scheduled (default 120 s).
	// Lazy models cost nothing beyond the virtual time actually
	// consumed, so generous horizons are cheap.
	Horizon time.Duration
	// Seed seeds all randomness; nil means DefaultSeed. Seed(0) is a
	// valid explicit seed.
	Seed *uint64
	// WithReverse forces a reverse (ack) link even when no TCP source
	// needs one, for callers that run their own TCP over the path.
	WithReverse bool
	// ReverseCapacity is the reverse link capacity (default 1 Gbps).
	ReverseCapacity unit.Rate
	// ReversePropDelay is the reverse link propagation latency
	// (default 1 ms).
	ReversePropDelay time.Duration
}

// seed returns the spec's seed, DefaultSeed when it sets none.
func (spec Spec) seed() uint64 {
	if spec.Seed != nil {
		return *spec.Seed
	}
	return DefaultSeed
}

// Compiled is a realized scenario: the simulation, the path, a
// transport for probing, and the analytic truth derived from the spec.
type Compiled struct {
	// Spec is the defaults-resolved spec the scenario was built from.
	Spec Spec
	// Sim is the underlying simulation.
	Sim *sim.Sim
	// Path is the forward path.
	Path *sim.Path
	// Reverse is the ack link (nil unless a TCP source or WithReverse
	// asked for one).
	Reverse *sim.Link
	// Transport delivers probing streams over the path.
	Transport *core.SimTransport
	// TrueAvailBw is the analytic long-run avail-bw of the tight link:
	// min over hops of AvailBw over [0, Horizon).
	TrueAvailBw unit.Rate
	// Capacity is the tight-link capacity — what direct-probing tools
	// need as Params.Capacity (and what capacity-estimation tools do
	// NOT measure when the tight link is not the narrow one).
	Capacity unit.Rate
	// TightLink is the hop index with the minimum long-run avail-bw.
	TightLink int
	// NarrowLink is the hop index with the minimum capacity.
	NarrowLink int

	// lossMeans is each hop's stationary loss probability.
	lossMeans []float64
}

// AvailBw returns the spec's avail-bw of the given hop over
// [from, from+window): the paper's A(t, t+τ) of Equation (2) with the
// cross traffic at its specified rates — the hop's time-weighted
// capacity over the window minus the load its sources offer over it,
// thinned by the hop's stationary loss probability (lost packets never
// consume transmission time), clamped at 0. No probe counts against it:
// the avail-bw a tool measures is what the cross traffic leaves. It
// panics on a hop outside the path, a non-positive window, or a window
// outside [0, Horizon).
func (c *Compiled) AvailBw(hop int, from, window time.Duration) unit.Rate {
	switch {
	case hop < 0 || hop >= len(c.Spec.Hops):
		panic(fmt.Sprintf("scenario: hop %d out of range [0, %d)", hop, len(c.Spec.Hops)))
	case window <= 0:
		panic(fmt.Sprintf("scenario: avail-bw window %v must be positive", window))
	case from < 0 || from+window > c.Spec.Horizon:
		panic(fmt.Sprintf("scenario: avail-bw window [%v, %v) is outside the horizon [0, %v)", from, from+window, c.Spec.Horizon))
	}
	a, _ := c.availBw(hop, from, from+window) // Compile has checked every source
	return a
}

// availBw is AvailBw over [from, to), a non-empty window inside
// [0, Horizon); it fails on a source whose rate profile is invalid.
func (c *Compiled) availBw(h int, from, to time.Duration) (unit.Rate, error) {
	hop := c.Spec.Hops[h]
	var load unit.Rate
	for _, src := range hop.Traffic {
		r, err := src.meanRate(from, to, c.Spec.Horizon)
		if err != nil {
			return 0, err
		}
		load += r
	}
	carried := unit.Rate(float64(load) * (1 - c.lossMeans[h]))
	return max(hop.effectiveCapacity(from, to)-carried, 0), nil
}

// Offered returns the packets that the spec's sources offer the given
// hop before until, as a trace on the hop's mean capacity over
// [0, until): the cross traffic alone, re-derived from the seed exactly
// as Compile feeds it, whatever the run has done since. It refuses a
// hop with a closed-loop source (Mice, BufferLimitedTCP), whose packets
// depend on what the path does to them.
func (c *Compiled) Offered(hop int, until time.Duration) (*trace.Trace, error) {
	if hop < 0 || hop >= len(c.Spec.Hops) {
		return nil, fmt.Errorf("scenario: hop %d out of range [0, %d)", hop, len(c.Spec.Hops))
	}
	if until <= 0 || until > c.Spec.Horizon {
		return nil, fmt.Errorf("scenario: offered packets until %v, outside (0, %v]", until, c.Spec.Horizon)
	}
	var pkts []trace.Pkt
	err := c.Spec.eachSource(func(h int, src Source, r *rng.Rand) error {
		if h != hop {
			return nil
		}
		p, err := src.openLoop(r, c.Spec.Hops[h].firstCapacity(), c.Spec.Horizon)
		if err != nil {
			return fmt.Errorf("scenario: hop %d: %w", h, err)
		}
		for {
			at, size, ok := p.Next()
			if !ok || at >= until {
				return nil
			}
			pkts = append(pkts, trace.Pkt{At: at, Size: size})
		}
	})
	if err != nil {
		return nil, err
	}
	return trace.New(c.Spec.Hops[hop].effectiveCapacity(0, until), until, pkts)
}

// MustCompile is Compile that panics on error, for specs that are
// compile-time constants (the catalog, test helpers).
func MustCompile(spec Spec) *Compiled {
	c, err := Compile(spec)
	if err != nil {
		panic(err)
	}
	return c
}

// Compile realizes the spec on a fresh simulation. Identical specs
// (including seed) give identical packet-level behavior.
func Compile(spec Spec) (*Compiled, error) {
	if len(spec.Hops) == 0 {
		return nil, fmt.Errorf("scenario: a spec needs at least one hop")
	}
	resolved := spec
	if resolved.Horizon == 0 {
		resolved.Horizon = 120 * time.Second
	}
	if resolved.Horizon < 0 {
		return nil, fmt.Errorf("scenario: negative horizon %v", resolved.Horizon)
	}
	if resolved.ReverseCapacity == 0 {
		resolved.ReverseCapacity = unit.Gbps
	}
	if resolved.ReversePropDelay == 0 {
		resolved.ReversePropDelay = time.Millisecond
	}

	s := sim.New()
	links := make([]*sim.Link, len(resolved.Hops))
	lossMeans := make([]float64, len(resolved.Hops))
	needReverse := resolved.WithReverse
	for h, hop := range resolved.Hops {
		if len(hop.CapacitySteps) > 0 {
			if hop.Capacity != 0 {
				return nil, fmt.Errorf("scenario: hop %d sets both Capacity and CapacitySteps; leave Capacity zero (the effective capacity is derived from the profile)", h)
			}
			if err := sim.ValidateCapacitySteps(capacitySteps(hop.CapacitySteps)); err != nil {
				return nil, fmt.Errorf("scenario: hop %d: %w", h, err)
			}
		} else if hop.Capacity <= 0 {
			return nil, fmt.Errorf("scenario: hop %d capacity %v must be positive", h, hop.Capacity)
		}
		prop := hop.PropDelay
		if prop == 0 {
			prop = time.Millisecond
		}
		links[h] = s.NewLink(fmt.Sprintf("hop%d", h), hop.firstCapacity(), prop)
		links[h].SetBuffer(hop.Buffer)
		lm, err := applyLinkModels(links[h], h, hop, resolved.seed())
		if err != nil {
			return nil, err
		}
		lossMeans[h] = lm
		for _, src := range hop.Traffic {
			if src.Kind == Mice || src.Kind == BufferLimitedTCP {
				needReverse = true
			}
		}
	}
	path := sim.MustPath(links...)
	var reverse *sim.Link
	if needReverse {
		reverse = s.NewLink("reverse", resolved.ReverseCapacity, resolved.ReversePropDelay)
	}

	cpl := &Compiled{
		Spec:      resolved,
		Sim:       s,
		Path:      path,
		Reverse:   reverse,
		Transport: core.NewSimTransport(s, path),
		lossMeans: lossMeans,
	}
	err := resolved.eachSource(func(h int, src Source, r *rng.Rand) error {
		return runSource(s, r, links[h], reverse, h, src, resolved.Horizon)
	})
	if err != nil {
		return nil, err
	}
	// Without TCP, a reverse link or a discipline, nothing but the
	// probe streams and the one-hop series fed above reaches the path,
	// so the simulator may batch a stream across it.
	sealed := !needReverse
	for _, hop := range resolved.Hops {
		sealed = sealed && hop.Queue.Kind == QueueFIFO
	}
	if sealed {
		s.Seal(links...)
	}

	// Analytic long-run ground truth: each hop's avail-bw over the
	// horizon, tight link = argmin avail, narrow link = argmin
	// capacity (first wins on ties).
	tight, narrow := 0, 0
	var tightA unit.Rate
	effCaps := make([]unit.Rate, len(resolved.Hops))
	for h, hop := range resolved.Hops {
		avail, err := cpl.availBw(h, 0, resolved.Horizon)
		if err != nil {
			return nil, fmt.Errorf("scenario: hop %d: %w", h, err)
		}
		effCaps[h] = hop.effectiveCapacity(0, resolved.Horizon)
		if h == 0 || avail < tightA {
			tight, tightA = h, avail
		}
		if effCaps[h] < effCaps[narrow] {
			narrow = h
		}
	}
	cpl.TightLink, cpl.NarrowLink = tight, narrow
	cpl.TrueAvailBw = tightA
	cpl.Capacity = effCaps[tight]
	return cpl, nil
}

// meanRate returns the source's time-weighted mean rate over
// [from, to), a non-empty window inside [0, horizon).
func (src Source) meanRate(from, to, horizon time.Duration) (unit.Rate, error) {
	segs, err := src.segments(horizon)
	if err != nil {
		return 0, err
	}
	var weighted float64
	for _, g := range segs {
		lo, hi := max(g.from, from), min(g.until, to)
		if hi > lo {
			weighted += float64(g.rate) * (hi - lo).Seconds()
		}
	}
	return unit.Rate(weighted / (to - from).Seconds()), nil
}

// segment is one constant-rate stretch of a source's profile.
type segment struct {
	from, until time.Duration
	rate        unit.Rate
}

// segments expands the source's rate profile over [0, horizon).
func (src Source) segments(horizon time.Duration) ([]segment, error) {
	if len(src.Steps) == 0 {
		if src.Rate <= 0 {
			return nil, fmt.Errorf("scenario: %s source needs a positive rate", src.Kind)
		}
		return []segment{{0, horizon, src.Rate}}, nil
	}
	switch src.Kind {
	case CBR, Poisson, ParetoOnOff, ParetoArrivals:
	default:
		return nil, fmt.Errorf("scenario: %s source does not support rate steps", src.Kind)
	}
	if src.Steps[0].At != 0 {
		return nil, fmt.Errorf("scenario: the first rate step must be at 0 (got %v)", src.Steps[0].At)
	}
	var segs []segment
	for i, st := range src.Steps {
		if st.Rate < 0 {
			return nil, fmt.Errorf("scenario: negative rate step %v", st.Rate)
		}
		until := horizon
		if i+1 < len(src.Steps) {
			until = src.Steps[i+1].At
			if until <= st.At {
				return nil, fmt.Errorf("scenario: rate steps must be strictly increasing in time")
			}
		}
		if st.At >= horizon {
			break
		}
		if until > horizon {
			until = horizon
		}
		segs = append(segs, segment{st.At, until, st.Rate})
	}
	return segs, nil
}

// sizes returns the source's packet-size distribution.
func (src Source) sizes() rng.SizeDist {
	if src.Sizes != nil {
		return src.Sizes
	}
	if src.PktSize > 0 {
		return rng.FixedSize(int(src.PktSize))
	}
	return rng.FixedSize(1500)
}

// eachSource hands f every source of the spec, hop-major and
// source-minor, with its random stream: exactly one root.Split per
// source that draws (every kind but CBR and BufferLimitedTCP), in that
// order, under the source's label — "hop<h>" for a hop's first source,
// "hop<h>.<j>" for the rest, unless SplitLabel overrides it. The order
// and the labels are a compatibility contract: they reproduce the rng
// streams of the pre-subsystem constructions exactly, which is what
// keeps EXPERIMENTS.md and the tool tests bit-identical. Compile and
// Offered both walk the sources through it.
func (spec Spec) eachSource(f func(h int, src Source, r *rng.Rand) error) error {
	root := rng.New(spec.seed())
	for h, hop := range spec.Hops {
		for j, src := range hop.Traffic {
			var r *rng.Rand
			if src.Kind != CBR && src.Kind != BufferLimitedTCP {
				label := src.SplitLabel
				switch {
				case label != "":
				case j == 0:
					label = fmt.Sprintf("hop%d", h)
				default:
					label = fmt.Sprintf("hop%d.%d", h, j)
				}
				r = root.Split(label)
			}
			if err := f(h, src, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSource starts one source on link, hop h of the path, drawing from
// r. An open-loop source is one crosstraffic.Process over all its rate
// segments, given to Sim.Feed here, so its packets tie in compile order.
func runSource(s *sim.Sim, r *rng.Rand, link, reverse *sim.Link, h int, src Source, horizon time.Duration) error {
	route := []*sim.Link{link}
	flow := src.Flow
	if flow == 0 {
		flow = 1000 + h
	}
	switch src.Kind {
	case Mice:
		if src.Rate <= 0 {
			return fmt.Errorf("scenario: mice source needs a positive offered load")
		}
		mice, err := tcp.NewMice(tcp.MiceConfig{
			OfferedLoad:   src.Rate,
			MeanFlowBytes: src.MeanFlowBytes,
		})
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		return mice.Run(s, route, []*sim.Link{reverse}, 0, horizon, flow, r)
	case BufferLimitedTCP:
		if src.Rate <= 0 {
			return fmt.Errorf("scenario: buffer-limited TCP needs a nominal rate for ground-truth accounting")
		}
		conns := src.Conns
		if conns == 0 {
			conns = 1
		}
		window := src.Window
		if window == 0 {
			window = 32
		}
		for i := 0; i < conns; i++ {
			conn, err := tcp.New(s, route, []*sim.Link{reverse}, flow+i, tcp.Config{RcvWnd: window})
			if err != nil {
				return fmt.Errorf("scenario: %w", err)
			}
			// Staggered starts, 50 ms apart, so the aggregate does not
			// slow-start in lockstep.
			conn.Start(time.Duration(i) * 50 * time.Millisecond)
		}
		return nil
	}
	p, err := src.openLoop(r, link.Capacity, horizon)
	if err != nil {
		return err
	}
	s.Feed(route, sim.KindCross, flow, p.Next)
	return nil
}

// openLoop returns the packets an open-loop source offers over
// [0, horizon) on a hop whose capacity starts at capacity, drawing from
// r (nil for CBR). It refuses a closed-loop source.
func (src Source) openLoop(r *rng.Rand, capacity unit.Rate, horizon time.Duration) (crosstraffic.Process, error) {
	switch src.Kind {
	case CBR, Poisson, ParetoOnOff, ParetoArrivals:
		segs, err := src.segments(horizon)
		if err != nil {
			return nil, err
		}
		var ps []crosstraffic.Process
		for _, g := range segs {
			if g.rate == 0 {
				continue
			}
			st := crosstraffic.Stream{Rate: g.rate, Sizes: src.sizes()}
			ps = append(ps, src.segmentModel(st, r).Over(g.from, g.until))
		}
		return crosstraffic.Chain(ps...), nil
	case LRD:
		if src.Rate <= 0 {
			return nil, fmt.Errorf("scenario: LRD source needs a positive rate")
		}
		if src.Rate >= capacity {
			return nil, fmt.Errorf("scenario: LRD rate %v must be below the hop capacity %v", src.Rate, capacity)
		}
		hurst := src.Hurst
		if hurst == 0 {
			hurst = 0.8
		}
		sizes := rng.SizeDist(rng.InternetMix)
		if src.Sizes != nil || src.PktSize > 0 {
			sizes = src.sizes()
		}
		stream, err := trace.NewFGNStream(trace.FGNConfig{
			Capacity: capacity,
			MeanRate: src.Rate,
			Hurst:    hurst,
			Span:     30 * time.Second,
			Sizes:    sizes,
		}, r)
		if err != nil {
			return nil, fmt.Errorf("scenario: LRD synthesis: %w", err)
		}
		return crosstraffic.Tiles(stream, horizon), nil
	case Mice, BufferLimitedTCP:
		return nil, fmt.Errorf("scenario: a %s source is closed-loop: what it sends depends on the path", src.Kind)
	default:
		return nil, fmt.Errorf("scenario: unknown source kind %v", src.Kind)
	}
}

// segmentModel builds the cross-traffic model for one rate segment of
// a CBR, Poisson, ParetoOnOff or ParetoArrivals source; r is the
// source's stream, shared by its segments (unused by CBR).
func (src Source) segmentModel(st crosstraffic.Stream, r *rng.Rand) crosstraffic.Model {
	switch src.Kind {
	case CBR:
		return crosstraffic.CBR(st)
	case Poisson:
		return crosstraffic.Poisson(st, r)
	case ParetoOnOff:
		return crosstraffic.ParetoOnOff(crosstraffic.ParetoOnOffConfig{Stream: st, OffCap: 200}, r)
	default:
		shape := src.Shape
		if shape == 0 {
			shape = 1.9
		}
		return crosstraffic.ParetoArrivals(st, shape, r)
	}
}
