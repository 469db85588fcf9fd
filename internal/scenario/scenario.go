// Package scenario is the declarative scenario subsystem: the single
// place in the module where cross-traffic topologies are constructed.
// A Spec describes a heterogeneous path — per-hop capacity, buffer and
// propagation delay, each hop carrying an arbitrary mix of traffic
// sources (CBR, Poisson, Pareto ON-OFF, Pareto interarrivals, LRD
// trace replay, TCP mice, window-limited persistent TCP), optionally
// with a piecewise-constant rate profile for step/ramp avail-bw — and
// Compile realizes it on the discrete-event simulator with the
// analytic ground truth, the tight-vs-narrow link distinction the
// paper's fifth pitfall turns on and, when the spec asks for it, a
// Recorder per link (the paper's Equations 1–3 at any timescale).
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
	// Recorded attaches a ground-truth Recorder to every hop, which
	// writes a row per arriving packet and per busy period, so that
	// Compiled.AvailBw can measure A(t, t+τ). Without it
	// Compiled.Recorders is nil and the links record nothing: what
	// judges an estimate against the analytic Compiled.TrueAvailBw
	// alone pays nothing per packet. Recorders never influence packet
	// behavior, so a recorded run is bit-identical to an unrecorded one.
	Recorded bool
}

// Compiled is a realized scenario: the simulation, the path (with a
// ground-truth Recorder per hop when the spec is Recorded), a transport
// for probing, and the analytic long-run truth derived from the spec.
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
	// Recorders holds one ground-truth recorder per hop (nil unless
	// the spec is Recorded).
	Recorders []*sim.Recorder
	// Transport delivers probing streams over the path.
	Transport *core.SimTransport
	// TrueAvailBw is the analytic long-run avail-bw of the tight link:
	// min over hops of capacity minus the hop's mean traffic rate.
	TrueAvailBw unit.Rate
	// Capacity is the tight-link capacity — what direct-probing tools
	// need as Params.Capacity (and what capacity-estimation tools do
	// NOT measure when the tight link is not the narrow one).
	Capacity unit.Rate
	// TightLink is the hop index with the minimum long-run avail-bw.
	TightLink int
	// NarrowLink is the hop index with the minimum capacity.
	NarrowLink int
}

// AvailBw returns the measured ground-truth avail-bw of the given hop
// over [from, from+window): the paper's A(t, t+τ) from the hop's
// recorder. It panics on a hop outside the path or on a compilation
// without recorders (a spec that is not Recorded).
func (c *Compiled) AvailBw(hop int, from, window time.Duration) unit.Rate {
	return c.recorder(hop).AvailBw(from, window)
}

// AvailBwSeries samples hop's avail-bw process A_τ(t) on consecutive
// windows covering [from, to). It panics like AvailBw.
func (c *Compiled) AvailBwSeries(hop int, from, to, tau time.Duration) []unit.Rate {
	return c.recorder(hop).AvailBwSeries(from, to, tau)
}

// recorder returns hop's ground-truth recorder, panicking with the
// reason when there is none.
func (c *Compiled) recorder(hop int) *sim.Recorder {
	if c.Recorders == nil {
		panic("scenario: measured avail-bw asked of a scenario compiled without recorders (set Spec.Recorded)")
	}
	if hop < 0 || hop >= len(c.Recorders) {
		panic(fmt.Sprintf("scenario: hop %d out of range [0, %d)", hop, len(c.Recorders)))
	}
	return c.Recorders[hop]
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
	seed := DefaultSeed
	if resolved.Seed != nil {
		seed = *resolved.Seed
	}

	s := sim.New()
	links := make([]*sim.Link, len(resolved.Hops))
	var recs []*sim.Recorder
	if resolved.Recorded {
		recs = make([]*sim.Recorder, len(resolved.Hops))
	}
	lossMeans := make([]float64, len(resolved.Hops))
	needReverse := resolved.WithReverse
	for h, hop := range resolved.Hops {
		capacity := hop.Capacity
		if len(hop.CapacitySteps) > 0 {
			if hop.Capacity != 0 {
				return nil, fmt.Errorf("scenario: hop %d sets both Capacity and CapacitySteps; leave Capacity zero (the effective capacity is derived from the profile)", h)
			}
			if err := sim.ValidateCapacitySteps(capacitySteps(hop.CapacitySteps)); err != nil {
				return nil, fmt.Errorf("scenario: hop %d: %w", h, err)
			}
			capacity = hop.CapacitySteps[0].Rate
		} else if hop.Capacity <= 0 {
			return nil, fmt.Errorf("scenario: hop %d capacity %v must be positive", h, hop.Capacity)
		}
		prop := hop.PropDelay
		if prop == 0 {
			prop = time.Millisecond
		}
		links[h] = s.NewLink(fmt.Sprintf("hop%d", h), capacity, prop)
		links[h].SetBuffer(hop.Buffer)
		var rec *sim.Recorder
		if recs != nil {
			rec = sim.NewRecorder(capacity)
			recs[h] = rec
			links[h].Attach(rec)
		}
		lm, err := applyLinkModels(links[h], rec, h, hop, seed)
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

	// Source realization. The split order (hop-major, source-minor) and
	// the default labels are a compatibility contract: they reproduce
	// the rng streams of the pre-subsystem constructions exactly, which
	// is what keeps EXPERIMENTS.md and the tool tests bit-identical.
	root := rng.New(seed)
	cpl := &Compiled{
		Spec:      resolved,
		Sim:       s,
		Path:      path,
		Reverse:   reverse,
		Recorders: recs,
		Transport: core.NewSimTransport(s, path),
	}
	sealed := !needReverse && !resolved.Recorded
	for h, hop := range resolved.Hops {
		sealed = sealed && hop.Queue.Kind == QueueFIFO
		for j, src := range hop.Traffic {
			if err := runSource(s, root, links[h], reverse, h, j, src, resolved.Horizon); err != nil {
				return nil, err
			}
		}
	}
	// Without TCP, a reverse link, a discipline or a recorder, nothing
	// but the probe streams and the one-hop series fed above reaches
	// the path, so the simulator may batch a stream across it.
	if sealed {
		s.Seal(links...)
	}

	// Analytic long-run ground truth: per-hop mean traffic rate from
	// the spec, tight link = argmin avail, narrow link = argmin
	// capacity (first wins on ties).
	// Under a capacity profile the hop's capacity is the profile's
	// long-run mean; under a loss model the hop's carried load is the
	// offered load thinned by the stationary loss probability (lost
	// packets never consume transmission time).
	tight, narrow := 0, 0
	var tightA unit.Rate
	effCaps := make([]unit.Rate, len(resolved.Hops))
	for h, hop := range resolved.Hops {
		var load unit.Rate
		for _, src := range hop.Traffic {
			r, err := src.meanRate(resolved.Horizon)
			if err != nil {
				return nil, fmt.Errorf("scenario: hop %d: %w", h, err)
			}
			load += r
		}
		effCaps[h] = hop.effectiveCapacity(resolved.Horizon)
		carried := unit.Rate(float64(load) * (1 - lossMeans[h]))
		avail := effCaps[h] - carried
		if avail < 0 {
			avail = 0
		}
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

// meanRate returns the source's long-run mean rate over the horizon.
func (src Source) meanRate(horizon time.Duration) (unit.Rate, error) {
	segs, err := src.segments(horizon)
	if err != nil {
		return 0, err
	}
	if horizon <= 0 {
		return 0, nil
	}
	var weighted float64
	for _, g := range segs {
		weighted += float64(g.rate) * (g.until - g.from).Seconds()
	}
	return unit.Rate(weighted / horizon.Seconds()), nil
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

// runSource starts one source on its hop. Sources that need randomness
// derive exactly one child stream from root, in hop-major order, under
// the source's (possibly overridden) label. An open-loop source is one
// crosstraffic.Process over all its rate segments, given to Sim.Feed
// here, so its packets tie in compile order.
func runSource(s *sim.Sim, root *rng.Rand, link, reverse *sim.Link, h, j int, src Source, horizon time.Duration) error {
	route := []*sim.Link{link}
	label := src.SplitLabel
	if label == "" {
		if j == 0 {
			label = fmt.Sprintf("hop%d", h)
		} else {
			label = fmt.Sprintf("hop%d.%d", h, j)
		}
	}
	flow := src.Flow
	if flow == 0 {
		flow = 1000 + h
	}
	switch src.Kind {
	case CBR, Poisson, ParetoOnOff, ParetoArrivals:
		segs, err := src.segments(horizon)
		if err != nil {
			return err
		}
		// Exactly one Split per random source and none for CBR: every
		// stream derived from root depends on that sequence.
		var r *rng.Rand
		if src.Kind != CBR {
			r = root.Split(label)
		}
		var ps []crosstraffic.Process
		for _, g := range segs {
			if g.rate == 0 {
				continue
			}
			st := crosstraffic.Stream{Rate: g.rate, Sizes: src.sizes()}
			ps = append(ps, src.segmentModel(st, r).Over(g.from, g.until))
		}
		s.Feed(route, sim.KindCross, flow, crosstraffic.Chain(ps...).Next)
	case LRD:
		if src.Rate <= 0 {
			return fmt.Errorf("scenario: LRD source needs a positive rate")
		}
		if src.Rate >= link.Capacity {
			return fmt.Errorf("scenario: LRD rate %v must be below the hop capacity %v", src.Rate, link.Capacity)
		}
		hurst := src.Hurst
		if hurst == 0 {
			hurst = 0.8
		}
		sizes := rng.SizeDist(rng.InternetMix)
		if src.Sizes != nil || src.PktSize > 0 {
			sizes = src.sizes()
		}
		r := root.Split(label)
		stream, err := trace.NewFGNStream(trace.FGNConfig{
			Capacity: link.Capacity,
			MeanRate: src.Rate,
			Hurst:    hurst,
			Span:     30 * time.Second,
			Sizes:    sizes,
		}, r)
		if err != nil {
			return fmt.Errorf("scenario: LRD synthesis: %w", err)
		}
		s.Feed(route, sim.KindCross, flow, crosstraffic.Tiles(stream, horizon).Next)
	case Mice:
		if src.Rate <= 0 {
			return fmt.Errorf("scenario: mice source needs a positive offered load")
		}
		r := root.Split(label)
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
	default:
		return fmt.Errorf("scenario: unknown source kind %v", src.Kind)
	}
	return nil
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
