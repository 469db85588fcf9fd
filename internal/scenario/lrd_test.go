package scenario

import (
	"testing"
	"time"

	"abw/internal/rng"
	"abw/internal/sim"
	"abw/internal/trace"
	"abw/internal/unit"
)

// eagerReplay is the LRD replayer replayTrace replaced, kept as the
// differential oracle: it lays a whole tile of injections down at the
// tile boundary, so the tile's packets hold consecutive event sequence
// numbers — the tie order the lazy feed must reproduce.
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
			pkt := s.NewPacket()
			pkt.Size, pkt.Kind, pkt.Flow, pkt.Route = p.Size, sim.KindCross, flow, route
			s.Inject(pkt, at)
		}
		if next := start + tr.Span; next < until {
			s.At(next, func() { tile(next) })
		}
	}
	tile(from)
}

// chainReplay is the lazy replayer one would write first — a plain
// self-rescheduling chain like crosstraffic.Poisson's, every element
// under an ordinary sequence number taken when its predecessor fires.
// It exists so the differential test can show it has teeth.
func chainReplay(s *sim.Sim, route []*sim.Link, tr *trace.Trace, flow int, from, until time.Duration) {
	var tile func(start time.Duration)
	tile = func(start time.Duration) {
		if start >= until {
			return
		}
		pkts := tr.Packets()
		var step func(i int)
		step = func(i int) {
			if i == len(pkts) || start+pkts[i].At >= until {
				return
			}
			s.At(start+pkts[i].At, func() {
				pkt := s.NewPacket()
				pkt.Size, pkt.Kind, pkt.Flow, pkt.Route = pkts[i].Size, sim.KindCross, flow, route
				s.Inject(pkt, s.Now())
				step(i + 1)
			})
		}
		step(0)
		if next := start + tr.Span; next < until {
			s.At(next, func() { tile(next) })
		}
	}
	tile(from)
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
// the observable an equal-time reordering changes.
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

// TestLazyReplayFiresInEagerOrder is the eager-vs-lazy differential: a
// short fGn trace tiled over a horizon that crosses two tile
// boundaries, with extra packets injected at the exact instants of
// chosen trace packets — some scheduled before the source starts (they
// must precede their trace packet in every tile), some right after it
// starts (they must follow it in tile 0 but precede it in later tiles,
// whose numbers are taken at the boundary), some from inside events:
// one running at a boundary instant just ahead of the boundary event
// (they must precede), two running mid-tile (they must follow, the
// first of each at the very instant the event runs). The link's
// service log — arrival time, flow, size, queueing delay — must
// match the eager replayer's row for row.
//
// Teeth: the chain sub-test runs the same script over a plain
// self-rescheduling chain and requires the log to differ. The sharper
// mutation — sim.scheduleFeed calling ScheduleArg instead of
// ScheduleArgSeq, i.e. the real feed under ordinary numbers — was
// applied by hand when this test was written and fails it at the first
// after-start tie of tile 0.
func TestLazyReplayFiresInEagerOrder(t *testing.T) {
	const (
		span    = 200 * time.Millisecond
		horizon = 500 * time.Millisecond // tiles at 0, 200 ms, 400 ms
		tieFlow = 7
	)
	cfg := trace.FGNConfig{Capacity: 20 * unit.Mbps, MeanRate: 8 * unit.Mbps, Span: span}
	tr, err := trace.SynthesizeFGN(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	pkts := tr.Packets()
	if len(pkts) < 200 {
		t.Fatalf("trace too short for the tie script: %d packets", len(pkts))
	}

	run := func(replay func(s *sim.Sim, route []*sim.Link)) []served {
		s := sim.New()
		link := s.NewLink("hop0", cfg.Capacity, time.Millisecond)
		log := &serviceLog{s: s}
		link.SetDiscipline(log)
		route := []*sim.Link{link}
		tie := func(at time.Duration, size unit.Bytes) {
			p := s.NewPacket()
			p.Size, p.Kind, p.Flow, p.Route = size, sim.KindProbe, tieFlow, route
			s.Inject(p, at)
		}
		// ties injects a packet at the instant of every stride-th trace
		// packet of the tile starting at start, from index first on.
		ties := func(start time.Duration, first, stride int, size unit.Bytes) {
			for i := first; i < len(pkts); i += stride {
				if at := start + pkts[i].At; at < horizon {
					tie(at, size)
				}
			}
		}
		for k := time.Duration(0); k < 3; k++ {
			ties(k*span, 1, 37, 101) // before the source starts
		}
		// Events that will inject ties from inside the run; scheduled
		// before the source so the one at the boundary instant fires
		// ahead of the boundary event, the mid-tile ones after it.
		s.At(span, func() { ties(span, 0, 43, 303) })
		s.At(span+pkts[100].At, func() { ties(span, 100, 29, 404) })
		s.At(2*span+pkts[50].At, func() { ties(2*span, 50, 1, 505) })

		replay(s, route)

		for k := time.Duration(0); k < 3; k++ {
			ties(k*span, 2, 41, 202) // after the source started
		}
		s.RunUntil(horizon + 100*time.Millisecond)
		return log.rows
	}

	eager := run(func(s *sim.Sim, route []*sim.Link) { eagerReplay(s, route, tr, 1000, 0, horizon) })
	equal := func(got []served) (int, bool) {
		for i := range eager {
			if i == len(got) || got[i] != eager[i] {
				return i, false
			}
		}
		return len(eager), len(got) == len(eager)
	}

	t.Run("feed", func(t *testing.T) {
		lazy := run(func(s *sim.Sim, route []*sim.Link) {
			stream, err := trace.NewFGNStream(cfg, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			replayTrace(s, route, stream, 1000, 0, horizon)
		})
		if i, ok := equal(lazy); !ok {
			if i < len(lazy) && i < len(eager) {
				t.Fatalf("service row %d: lazy %+v, eager %+v", i, lazy[i], eager[i])
			}
			t.Fatalf("lazy served %d packets, eager %d", len(lazy), len(eager))
		}
	})
	t.Run("chain", func(t *testing.T) {
		chain := run(func(s *sim.Sim, route []*sim.Link) { chainReplay(s, route, tr, 1000, 0, horizon) })
		if _, ok := equal(chain); ok {
			t.Fatal("a plain self-rescheduling chain reproduces the eager service log: the tie script distinguishes nothing")
		}
	})

	// The script must really have produced ties on both sides of trace
	// packets, or equality above proves little.
	var tieFirst, traceFirst int
	for i := 1; i < len(eager); i++ {
		a, b := eager[i-1], eager[i]
		switch {
		case a.at != b.at:
		case a.flow == tieFlow && b.flow != tieFlow:
			tieFirst++
		case a.flow != tieFlow && b.flow == tieFlow:
			traceFirst++
		}
	}
	if tieFirst < 10 || traceFirst < 10 {
		t.Fatalf("tie script produced %d tie-before-trace and %d trace-before-tie pairs, want at least 10 of each", tieFirst, traceFirst)
	}
}

// TestLRDCompileIsLazy pins the laziness without a timer: a compiled
// lrd scenario has a couple of events pending (the eager replayer had
// a whole 30 s tile, ~177 000) and compiling allocates a few dozen
// objects (it allocated ~348 000); a run that crosses the first tile
// boundary still has only a couple pending.
func TestLRDCompileIsLazy(t *testing.T) {
	d, ok := Lookup("lrd")
	if !ok {
		t.Fatal("lrd scenario missing")
	}
	recorded := d
	recorded.Spec.Recorded = true
	cpl, err := recorded.CompileSeeded(1)
	if err != nil {
		t.Fatal(err)
	}
	mustBeRecorded(t, cpl)
	if n := cpl.Sim.Pending(); n > 8 {
		t.Errorf("%d events pending after compile, want a small constant", n)
	}
	cpl.Sim.RunUntil(31 * time.Second)
	if n := len(cpl.Recorders[0].Arrivals()); n < 150_000 {
		t.Fatalf("only %d arrivals in 31 s: the source did not run across the tile boundary", n)
	}
	if n := cpl.Sim.Pending(); n > 8 {
		t.Errorf("%d events pending after crossing a tile boundary, want a small constant", n)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := d.CompileSeeded(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 200 {
		t.Errorf("compile allocates %.0f objects, want under 200", allocs)
	}
}

// TestLRDHonoursPktSize: an LRD source with PktSize set emits that
// size, not the Internet mix it defaults to.
func TestLRDHonoursPktSize(t *testing.T) {
	cpl := mustBeRecorded(t, MustCompile(Spec{Recorded: true, Hops: []Hop{{Capacity: 50 * unit.Mbps, Traffic: []Source{{Kind: LRD, Rate: 25 * unit.Mbps, PktSize: 1000}}}}}))
	cpl.Sim.RunUntil(100 * time.Millisecond)
	arrivals := cpl.Recorders[0].Arrivals()
	if len(arrivals) == 0 {
		t.Fatal("no arrivals")
	}
	for _, a := range arrivals {
		if a.Size != 1000 {
			t.Fatalf("arrival of %d bytes, want PktSize 1000", a.Size)
		}
	}
}

// BenchmarkCompile is the compile rung of the ladder, in-tree: one
// fresh CompileSeeded of each scenario the repo benchmark's estimate
// workload compiles per estimate, with the events left pending.
func BenchmarkCompile(b *testing.B) {
	for _, name := range []string{"canonical", "lrd", "mice", "verylongpath"} {
		b.Run(name, func(b *testing.B) {
			d, ok := Lookup(name)
			if !ok {
				b.Fatalf("scenario %q not in catalog", name)
			}
			b.ReportAllocs()
			var cpl *Compiled
			for i := 0; i < b.N; i++ {
				var err error
				if cpl, err = d.CompileSeeded(1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cpl.Sim.Pending()), "pending-events")
		})
	}
}
