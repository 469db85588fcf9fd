package crosstraffic

import (
	"testing"
	"time"

	"abw/internal/rng"
	"abw/internal/sim"
	"abw/internal/unit"
)

// The oracle: the Run bodies of CBR, Poisson and ParetoArrivals as they
// stood before the sources started handing packets to the link from
// their own event — an Inject event per packet, the next step scheduled
// after it, and one more (dead) step past the horizon. The one addition
// is the no-op OnArrive in oracleInject: it makes Link.txDone schedule
// the terminal advance event it always used to, so an oracle run is the
// old four-events-a-packet sequence in full. ParetoOnOff is not here:
// its Run body did not change.

func oracleInject(s *sim.Sim, route []*sim.Link, size unit.Bytes, kind sim.Kind, flow int, at time.Duration) {
	p := s.NewPacket()
	p.Size, p.Kind, p.Flow, p.Route = size, kind, flow, route
	p.OnArrive = func(*sim.Packet, time.Duration) {}
	s.Inject(p, at)
}

type oracleCBR struct{ cfg Stream }

func (m *oracleCBR) Run(s *sim.Sim, route []*sim.Link, from, until time.Duration) *Counter {
	ctr := &Counter{}
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
		oracleInject(s, route, size, m.cfg.Kind, m.cfg.Flow, next)
		ctr.Packets++
		ctr.Bytes += size
		next += gap
		s.At(next, step)
	}
	s.At(from, step)
	return ctr
}

type oraclePoisson struct {
	cfg Stream
	r   *rng.Rand
}

func (m *oraclePoisson) Run(s *sim.Sim, route []*sim.Link, from, until time.Duration) *Counter {
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
		oracleInject(s, route, size, m.cfg.Kind, m.cfg.Flow, at)
		ctr.Packets++
		ctr.Bytes += size
		at += time.Duration(m.r.Exp(meanGapSec) * 1e9)
		s.At(at, step)
	}
	s.At(from, step)
	return ctr
}

type oracleParetoArrivals struct {
	cfg   Stream
	shape float64
	r     *rng.Rand
}

func (m *oracleParetoArrivals) Run(s *sim.Sim, route []*sim.Link, from, until time.Duration) *Counter {
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
		oracleInject(s, route, size, m.cfg.Kind, m.cfg.Flow, at)
		ctr.Packets++
		ctr.Bytes += size
		at += time.Duration(m.r.Pareto(m.shape, xm) * 1e9)
		s.At(at, step)
	}
	s.At(from, step)
	return ctr
}

// served is one row of a link's service log.
type served struct {
	at    time.Duration // arrival at the link
	flow  int
	size  unit.Bytes
	queue time.Duration // time spent waiting before transmission began
}

// serviceLog is a FIFO discipline that drops nothing and records, per
// packet in service order, when it arrived and how long it queued —
// the observable an equal-time reordering changes (the discipline of
// scenario's lazy-replay differential, copied).
type serviceLog struct {
	s       *sim.Sim
	arrived []time.Duration
	rows    []served
}

func (*serviceLog) Name() string { return "service-log" }

func (g *serviceLog) Admit(*sim.Link, *sim.Packet) bool {
	g.arrived = append(g.arrived, g.s.Now())
	return true
}

func (g *serviceLog) Dequeue(_ *sim.Link, p *sim.Packet) bool {
	at := g.arrived[len(g.rows)]
	g.rows = append(g.rows, served{at: at, flow: p.Flow, size: p.Size, queue: g.s.Now() - at})
	return true
}

// delivered is one tie packet's arrival past the link: its size and the
// instant, which includes the link's per-packet jitter draw.
type delivered struct {
	size unit.Bytes
	at   time.Duration
}

const (
	diffCapacity = 20 * unit.Mbps
	diffHorizon  = 300 * time.Millisecond
	srcFlow      = 1000
	tieFlow      = 7
)

// diffRun is one simulation of the differential: a source on one
// jittered 1 ms link under the service log, with the tie script laid
// around it when instants is non-nil.
type diffRun struct {
	rows      []served
	delivered []delivered
	packets   int64
	bytes     unit.Bytes
	stats     sim.Stats
	pending   int
}

// runDiff starts the source with start (which returns its counters) and
// drives the tie script against the emission instants in T. parked adds
// the cancelled timers.
func runDiff(start func(s *sim.Sim, route []*sim.Link) []*Counter, T []time.Duration, parked bool) diffRun {
	s := sim.New()
	link := s.NewLink("hop0", diffCapacity, time.Millisecond)
	// Jitter draws come from one stream shared by every packet the link
	// forwards, so a tie packet's delivery instant moves if a cross
	// packet ahead of it skips its draw.
	link.SetJitter(200*time.Microsecond, rng.New(99))
	log := &serviceLog{s: s}
	link.SetDiscipline(log)
	route := []*sim.Link{link}

	var out diffRun
	tie := func(at time.Duration, size unit.Bytes) {
		p := s.NewPacket()
		p.Size, p.Kind, p.Flow, p.Route = size, sim.KindProbe, tieFlow, route
		p.OnArrive = func(p *sim.Packet, at time.Duration) {
			out.delivered = append(out.delivered, delivered{p.Size, at})
		}
		s.Inject(p, at)
	}
	// ties injects a packet at every stride-th emission instant from
	// index first on.
	ties := func(first, stride int, size unit.Bytes) {
		for i := first; i < len(T); i += stride {
			tie(T[i], size)
		}
	}
	// strictlyBefore is an instant inside the gap that ends at T[i]:
	// whatever runs there runs after the step that emitted packet i-1
	// (and so scheduled step i) and before step i.
	strictlyBefore := func(i int) (time.Duration, bool) {
		return T[i] - 1, i > 0 && T[i]-1 > T[i-1]
	}

	if T != nil {
		// (a) Before the source starts: the tie's Inject is numbered
		// below every step, so it precedes the source's packet. At the
		// source's own packet size, so that on the CBR case (gap = two
		// transmission times) the source packet queued behind it
		// finishes exactly when the next step fires.
		ties(1, 7, 1500)
		// (c, d) From inside an event that runs at an emission instant
		// ahead of that instant's step: the first tie lands on the
		// instant itself and is pending when the step runs (the tied
		// branch), the rest land on later instants, numbered below
		// their steps.
		s.At(T[20], func() { ties(20, 5, 303) })
		s.At(T[len(T)/2], func() { ties(len(T)/2, 3, 304) })
		for i := 3; i < len(T); i += 11 {
			// (e) Injected from inside the gap before the instant: the
			// tie's number falls between step i's and the number the
			// Inject of packet i used to take. The tied branch; a merge
			// that ignores ties puts the source's packet first.
			if at, ok := strictlyBefore(i); ok {
				i := i
				s.At(at, func() { tie(T[i], 404) })
			}
		}
		for i := 5; i < len(T); i += 13 {
			// (f) An event numbered above step i and pending at the
			// instant injects its tie when it runs: after packet i's
			// Inject was numbered, so the source's packet goes first.
			if at, ok := strictlyBefore(i); ok {
				i := i
				s.At(at, func() { s.At(T[i], func() { tie(T[i], 505) }) })
			}
		}
		if parked {
			for i := 6; i < len(T); i += 17 {
				// (g) A timer set on the instant and cancelled at once,
				// the way a TCP source re-arms its retransmit timer: it
				// shares the cursor's tick, so the cancel only marks it
				// and the dead entry is still queued behind step i when
				// that runs. It must not count as a tie.
				if at, ok := strictlyBefore(i); ok && int64(T[i])>>10 == int64(at)>>10 {
					i := i
					s.At(at, func() { s.Cancel(s.At(T[i], func() { panic("cancelled timer fired") })) })
				}
			}
		}
	}

	ctrs := start(s, route)

	if T != nil {
		// (b) After the source started: numbered above step 0 (tied
		// branch at the first instant), below every later step.
		ties(0, 9, 202)
	}
	s.RunUntil(diffHorizon + 100*time.Millisecond)
	for _, c := range ctrs {
		out.packets += c.Packets
		out.bytes += c.Bytes
	}
	out.rows, out.stats, out.pending = log.rows, s.Stats(), s.Pending()
	return out
}

// sameRows fails the test at the first row where got and want differ.
func sameRows[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	for i := range want {
		if i < len(got) && got[i] != want[i] {
			t.Fatalf("%s: row %d of %d is %+v, want %+v", what, i, len(want), got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
}

// TestSourcesFireInInjectOrder is the differential behind
// sim.InjectThen and the terminal release in Link.txDone: each source
// model, and one two-segment source whose segments share a random
// stream the way scenario.runSource builds them, runs once as the
// oracle alone to learn its emission instants, then oracle and
// production code run under the same script of probe-kind packets
// placed on exactly those instants from every side (see runDiff). The
// link's service log — arrival, flow, size, queueing delay — and the
// tie packets' jittered delivery instants must match row for row, the
// script must really have produced ties on both sides of source
// packets, and both branches of InjectThen must have run.
//
// Teeth, each applied by hand when this test was written (CHANGES.md
// has the failing rows): InjectThen with tied-ness forced false fails
// every case at row 0, the (b) tie on the first instant, and at row 4,
// the first (e) tie, with that one taken out; txDone skipping the
// jitter draw for a released packet fails on the delivery log;
// PendingAt counting lazily-cancelled entries leaves the logs equal and
// fails the TiedInjects comparison of the parked sub-check instead.
// Moving the direct forward ahead of At(next, fn) cannot show in a
// packet log — the two events it swaps are the next step and this
// packet's txDone, and a step that finds the txDone pending takes the
// Inject path, which runs after it either way — so sim's
// TestInjectThenOrder pins that one.
func TestSourcesFireInInjectOrder(t *testing.T) {
	mix := rng.MustModalSizes(rng.Mode{Size: 40, Prob: 0.4}, rng.Mode{Size: 576, Prob: 0.3}, rng.Mode{Size: 1500, Prob: 0.3})
	run1 := func(m Model) func(*sim.Sim, []*sim.Link) []*Counter {
		return func(s *sim.Sim, route []*sim.Link) []*Counter {
			return []*Counter{m.Run(s, route, 0, diffHorizon)}
		}
	}
	cases := []struct {
		name string
		// start builds the source afresh (its random stream included)
		// from the oracle or the production models.
		start func(oracle bool) func(*sim.Sim, []*sim.Link) []*Counter
	}{
		{"cbr", func(oracle bool) func(*sim.Sim, []*sim.Link) []*Counter {
			// 1500 B at 10 Mbps on 20 Mbps: gap = 2 transmission times.
			cfg := Stream{Rate: 10 * unit.Mbps, Flow: srcFlow}
			if oracle {
				return run1(&oracleCBR{cfg})
			}
			return run1(CBR(cfg))
		}},
		{"poisson", func(oracle bool) func(*sim.Sim, []*sim.Link) []*Counter {
			cfg := Stream{Rate: 8 * unit.Mbps, Sizes: mix, Flow: srcFlow}
			if oracle {
				return run1(&oraclePoisson{cfg, rng.New(11)})
			}
			return run1(Poisson(cfg, rng.New(11)))
		}},
		{"paretoarrivals", func(oracle bool) func(*sim.Sim, []*sim.Link) []*Counter {
			cfg := Stream{Rate: 8 * unit.Mbps, Sizes: mix, Flow: srcFlow}
			if oracle {
				return run1(&oracleParetoArrivals{cfg, 1.5, rng.New(12)})
			}
			return run1(ParetoArrivals(cfg, 1.5, rng.New(12)))
		}},
		{"twosegments", func(oracle bool) func(*sim.Sim, []*sim.Link) []*Counter {
			// Both segments are started before the run and draw from one
			// stream: segment 2's first size is drawn when its first
			// step fires, after all of segment 1's draws.
			return func(s *sim.Sim, route []*sim.Link) []*Counter {
				r := rng.New(13)
				var ctrs []*Counter
				for k, rate := range []unit.Rate{5 * unit.Mbps, 11 * unit.Mbps} {
					cfg := Stream{Rate: rate, Sizes: mix, Flow: srcFlow}
					var m Model = Poisson(cfg, r)
					if oracle {
						m = &oraclePoisson{cfg, r}
					}
					from := time.Duration(k) * diffHorizon / 2
					ctrs = append(ctrs, m.Run(s, route, from, from+diffHorizon/2))
				}
				return ctrs
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var T []time.Duration
			for _, row := range runDiff(tc.start(true), nil, false).rows {
				T = append(T, row.at)
			}
			if len(T) < 200 {
				t.Fatalf("only %d emissions: too short for the tie script", len(T))
			}
			want := runDiff(tc.start(true), T, true)
			got := runDiff(tc.start(false), T, true)

			if got.packets != want.packets || got.bytes != want.bytes {
				t.Errorf("emitted %d packets / %d bytes, oracle %d / %d", got.packets, got.bytes, want.packets, want.bytes)
			}
			sameRows(t, "service log vs the oracle's", got.rows, want.rows)
			sameRows(t, "tie deliveries vs the oracle's", got.delivered, want.delivered)

			// The script must really have produced ties on both sides of
			// source packets, or equality above proves little.
			var tieFirst, srcFirst int
			for i := 1; i < len(want.rows); i++ {
				a, b := want.rows[i-1], want.rows[i]
				switch {
				case a.at != b.at:
				case a.flow == tieFlow && b.flow == srcFlow:
					tieFirst++
				case a.flow == srcFlow && b.flow == tieFlow:
					srcFirst++
				}
			}
			if tieFirst < 10 || srcFirst < 10 {
				t.Errorf("tie script produced %d tie-before-source and %d source-before-tie pairs, want at least 10 of each", tieFirst, srcFirst)
			}
			if st := want.stats; st.DirectInjects != 0 || st.TiedInjects != 0 {
				t.Errorf("the oracle went through InjectThen: %+v", st)
			}
			st := got.stats
			if st.DirectInjects < 100 || st.TiedInjects < 20 || int64(st.DirectInjects+st.TiedInjects) != got.packets {
				t.Errorf("InjectThen took %d direct and %d tied injections for %d packets: both branches must run", st.DirectInjects, st.TiedInjects, got.packets)
			}

			// A lazily-cancelled timer parked on an emission instant is
			// not a tie: with or without them the run is the same, down
			// to the number of packets that took the Inject path.
			bare := runDiff(tc.start(false), T, false)
			if bare.stats.TiedInjects != st.TiedInjects {
				t.Errorf("cancelled timers on emission instants moved TiedInjects %d -> %d", bare.stats.TiedInjects, st.TiedInjects)
			}
			if bare.stats.Cancelled != 0 || st.Cancelled < 5 {
				t.Errorf("parked %d cancelled timers (%d without the parked script), want at least 5 (and 0)", st.Cancelled, bare.stats.Cancelled)
			}
			sameRows(t, "service log with cancelled timers vs without", got.rows, bare.rows)

			// A finished source leaves nothing behind; the oracle leaves
			// its dead step when the last gap lands inside the run.
			if got.pending != 0 {
				t.Errorf("%d events pending after the source ended, want 0", got.pending)
			}
		})
	}
}
