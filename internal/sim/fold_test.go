package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"abw/internal/crosstraffic"
	"abw/internal/rng"
	"abw/internal/trace"
	"abw/internal/unit"
)

// This file pins folding against the event path it replaces. The
// differential runs one seeded script twice — once as written, once
// with SetEagerFeeds(true) so every feed schedules its events — and
// demands the same observable run: every event-driven packet's arrival
// past each hop it crosses, every link's counters and every source's
// pull count at each RunUntil return, and the final clock.

const foldHorizon = 200 * time.Millisecond

// linkCounters is what a link shows between events.
type linkCounters struct {
	Forwarded, Dropped, Lost int64
	Served, Queued           unit.Bytes
	QueueLen                 int
}

func countersOf(l *Link) linkCounters {
	return linkCounters{l.Forwarded(), l.Dropped(), l.Lost(), l.BytesServed(), l.QueuedBytes(), l.QueueLen()}
}

// foldCheckpoint is the state at one RunUntil (or the final Run) return.
type foldCheckpoint struct {
	Now   time.Duration
	Links []linkCounters
	Pulls []int64
}

// foldOutcome is one run of the differential script.
type foldOutcome struct {
	Hops   []string          // what each hop is, for messages
	Folds  []bool            // which hops fold: plain FIFOs fed a source
	Probes [][]time.Duration // per probe, its arrival past each hop crossed; -1 marks a drop
	Checks []foldCheckpoint
	Folded uint64
}

// foldScript builds a 1–4 hop path from seed, about half its hops plain
// FIFOs that fold and the rest each given one thing that keeps a link
// on the event path; feeds one source of every model onto random hops;
// and injects probes on the instants those sources emit at, from every
// side (the tie script of the feed-order test): scheduled before the
// feeds start (a) and after (b), from inside an event at the instant
// (c), from inside the gap before it (e), from an event scheduled there
// from inside that gap (f), with cancelled timers parked on instants
// (g). Some probes carry their whole remaining route; the others cross
// one hop per packet, each arrival recorded and handed to the next hop
// at once, which is what a multi-hop route does. Half the seeds also
// feed a whole-path probe-kind load, which an event carries onto every
// hop.
func foldScript(t testing.TB, seed uint64, eager bool) foldOutcome {
	defer SetEagerFeeds(SetEagerFeeds(eager))
	r := rng.New(seed)
	s := New()
	var out foldOutcome

	links := make([]*Link, 1+r.Intn(4))
	for h := range links {
		capacity := unit.Rate(10+90*r.Float64()) * unit.Mbps
		var prop time.Duration
		if r.Float64() < 0.7 {
			prop = time.Duration(r.Float64() * float64(2*time.Millisecond))
		}
		l := s.NewLink(fmt.Sprintf("hop%d", h), capacity, prop)
		kind := "plain"
		switch r.Intn(14) {
		case 0:
			kind, l.BufferBytes = "buffer", unit.Bytes(6000+r.Intn(30000))
		case 1:
			kind = "jitter"
			l.SetJitter(time.Duration(r.Float64()*float64(300*time.Microsecond))+1, rng.New(r.Uint64()))
		case 2:
			kind = "red"
			l.SetDiscipline(NewRED(REDConfig{MinTh: 2, MaxTh: 6}, rng.New(r.Uint64())))
		case 3:
			kind = "codel"
			l.SetDiscipline(NewCoDel(CoDelConfig{Target: 200 * time.Microsecond, Interval: 2 * time.Millisecond}))
		case 4:
			kind = "loss"
			l.SetLoss(NewBernoulliLoss(0.03, rng.New(r.Uint64())))
		case 5:
			kind = "fading"
			l.SetCapacitySchedule([]CapacityStep{{0, capacity}, {foldHorizon / 2, capacity / 2}})
		case 6:
			kind = "recorded"
			l.Attach(NewRecorder(capacity))
		}
		out.Hops = append(out.Hops, fmt.Sprintf("%s %s %v prop %v", l.Name, kind, capacity, prop))
		out.Folds = append(out.Folds, kind == "plain") // cleared below if no source lands on it
		links[h] = l
	}

	// One source of every model, each on a random hop with its own
	// stream; build makes the process afresh so its instants can be
	// drained ahead of the run.
	mix := rng.MustModalSizes(rng.Mode{Size: 40, Prob: 0.4}, rng.Mode{Size: 576, Prob: 0.3}, rng.Mode{Size: 1500, Prob: 0.3})
	type source struct {
		hop   int
		build func() crosstraffic.Process
	}
	var sources []source
	for k := 0; k < 5; k++ {
		h, sseed := r.Intn(len(links)), r.Uint64()
		st := crosstraffic.Stream{Rate: links[h].Capacity * unit.Rate(0.06+0.12*r.Float64()), Sizes: mix}
		var build func() crosstraffic.Process
		switch k {
		case 0:
			st.Sizes = rng.FixedSize(40 + r.Intn(1460))
			build = func() crosstraffic.Process { return crosstraffic.CBR(st).Over(0, foldHorizon) }
		case 1:
			build = func() crosstraffic.Process { return crosstraffic.Poisson(st, rng.New(sseed)).Over(0, foldHorizon) }
		case 2:
			build = func() crosstraffic.Process {
				return crosstraffic.ParetoOnOff(crosstraffic.ParetoOnOffConfig{Stream: st, OffCap: 200}, rng.New(sseed)).Over(0, foldHorizon)
			}
		case 3:
			build = func() crosstraffic.Process {
				return crosstraffic.ParetoArrivals(st, 1.5, rng.New(sseed)).Over(0, foldHorizon)
			}
		case 4:
			build = func() crosstraffic.Process {
				fgn, err := trace.NewFGNStream(trace.FGNConfig{Capacity: links[h].Capacity, MeanRate: st.Rate, Span: foldHorizon / 2}, rng.New(sseed))
				if err != nil {
					t.Fatal(err)
				}
				return crosstraffic.Tiles(fgn, foldHorizon)
			}
		}
		sources = append(sources, source{h, build})
	}
	for h := range links {
		out.Folds[h] = out.Folds[h] && slices.ContainsFunc(sources, func(src source) bool { return src.hop == h })
	}
	// T[h] holds the instants the sources on hop h emit at.
	T := make([][]time.Duration, len(links))
	for _, src := range sources {
		p := src.build()
		for at, _, ok := p.Next(); ok; at, _, ok = p.Next() {
			T[src.hop] = append(T[src.hop], at)
		}
	}
	for h := range T {
		slices.Sort(T[h])
		T[h] = slices.Compact(T[h])
	}

	sizes := []unit.Bytes{40, 576, 1500}
	// probe sends a packet into hop h0 at the instant at; whole probes
	// carry their remaining route, the others one hop per packet.
	probe := func(h0 int, at time.Duration) {
		id := len(out.Probes)
		out.Probes = append(out.Probes, nil)
		size := sizes[r.Intn(len(sizes))]
		drop := func(*Packet, *Link, time.Duration) { out.Probes[id] = append(out.Probes[id], -1) }
		if id%2 == 0 {
			p := s.NewPacket()
			p.Size, p.Kind, p.Route, p.OnDrop = size, KindProbe, links[h0:], drop
			p.OnArrive = func(_ *Packet, at time.Duration) { out.Probes[id] = append(out.Probes[id], at) }
			s.Inject(p, at)
			return
		}
		var hopTo func(h int) *Packet
		hopTo = func(h int) *Packet {
			p := s.NewPacket()
			p.Size, p.Kind, p.Route, p.OnDrop = size, KindProbe, links[h:h+1], drop
			p.OnArrive = func(_ *Packet, at time.Duration) {
				out.Probes[id] = append(out.Probes[id], at)
				if h+1 < len(links) {
					links[h+1].deliver(hopTo(h + 1))
				}
			}
			return p
		}
		s.Inject(hopTo(h0), at)
	}
	pick := func(lo, hi int) int { return lo + r.Intn(hi-lo+1) }
	ties := func(h, first, stride int) {
		for i := first; i < len(T[h]); i += stride {
			probe(h, T[h][i])
		}
	}
	// gaps calls fn(h, i, T[h][i]-1) for every few instants of hop h
	// that have a free nanosecond before them.
	gaps := func(fn func(h, i int, before time.Duration)) {
		for h := range T {
			for i := pick(1, 8); i < len(T[h]); i += pick(8, 24) {
				if T[h][i]-1 > T[h][i-1] {
					fn(h, i, T[h][i]-1)
				}
			}
		}
	}

	for h := range T {
		h := h
		ties(h, pick(0, 6), pick(8, 24)) // (a)
		if len(T[h]) > 0 {               // (c)
			i, stride := pick(0, len(T[h])-1), pick(4, 12)
			s.At(T[h][i], func() { ties(h, i, stride) })
		}
	}
	gaps(func(h, i int, before time.Duration) { // (e)
		s.At(before, func() { probe(h, T[h][i]) })
	})
	gaps(func(h, i int, before time.Duration) { // (f)
		s.At(before, func() { s.At(T[h][i], func() { probe(h, T[h][i]) }) })
	})
	gaps(func(_, _ int, before time.Duration) { // (g)
		s.At(before, func() { s.Cancel(s.At(before+1, func() { panic("cancelled timer fired") })) })
	})
	counters := make([]*crosstraffic.Counter, len(sources))
	for k, src := range sources {
		counters[k] = &crosstraffic.Counter{Process: src.build()}
		s.Feed(links[src.hop:src.hop+1], KindCross, 1000+k, counters[k].Next)
	}
	if r.Intn(2) == 0 {
		load := &crosstraffic.Counter{Process: crosstraffic.CBR(crosstraffic.Stream{
			Rate: links[0].Capacity / 10, Sizes: rng.FixedSize(200)}).Over(foldHorizon/4, foldHorizon/2)}
		counters = append(counters, load)
		s.Feed(links, KindProbe, 0, load.Next)
	}
	for h := range T {
		ties(h, pick(0, 6), pick(8, 24)) // (b)
	}

	// check reads the pull counts first: a link's accessors catch it up,
	// pulling on its series.
	check := func() {
		c := foldCheckpoint{Now: s.Now()}
		for _, ctr := range counters {
			c.Pulls = append(c.Pulls, ctr.Packets)
		}
		for _, l := range links {
			c.Links = append(c.Links, countersOf(l))
		}
		out.Checks = append(out.Checks, c)
	}
	for s.Now() < foldHorizon+20*time.Millisecond {
		s.RunUntil(s.Now() + time.Duration(1+r.Intn(10_000_000)))
		check()
	}
	s.Run()
	check()
	out.Folded = s.Stats().Folded
	return out
}

// foldMatchesEager runs the script at seed both ways and fails at the
// first difference. It returns the packets folded and the checkpoints
// at which a folding link had packets waiting.
func foldMatchesEager(t testing.TB, seed uint64) (folded uint64, queued int) {
	got, want := foldScript(t, seed, false), foldScript(t, seed, true)
	if want.Folded != 0 {
		t.Fatalf("seed %d: the eager oracle folded %d packets", seed, want.Folded)
	}
	for i := range want.Probes {
		if i < len(got.Probes) && !slices.Equal(got.Probes[i], want.Probes[i]) {
			t.Fatalf("seed %d (%v): probe %d crossed hops at %v, eager %v", seed, want.Hops, i, got.Probes[i], want.Probes[i])
		}
	}
	for i := range want.Checks {
		if i < len(got.Checks) && !reflect.DeepEqual(got.Checks[i], want.Checks[i]) {
			t.Fatalf("seed %d (%v): checkpoint %d of %d is\n %+v\nwant\n %+v", seed, want.Hops, i, len(want.Checks), got.Checks[i], want.Checks[i])
		}
	}
	if len(got.Probes) != len(want.Probes) || len(got.Checks) != len(want.Checks) {
		t.Fatalf("seed %d: %d probes and %d checkpoints, eager %d and %d", seed, len(got.Probes), len(got.Checks), len(want.Probes), len(want.Checks))
	}
	for _, c := range got.Checks {
		for h, l := range c.Links {
			if got.Folds[h] && l.QueueLen > 0 {
				queued++
			}
		}
	}
	return got.Folded, queued
}

// TestFoldMatchesEager runs the differential on fixed seeds and checks
// that the script has teeth: together the seeds fold thousands of
// packets and catch folding links with a queue between events.
func TestFoldMatchesEager(t *testing.T) {
	var folded uint64
	var queued int
	for seed := uint64(1); seed <= 40; seed++ {
		f, q := foldMatchesEager(t, seed)
		folded, queued = folded+f, queued+q
	}
	t.Logf("forty seeds folded %d packets; a folding link had a queue at %d checkpoints", folded, queued)
	if folded < 10_000 || queued < 20 {
		t.Errorf("forty seeds folded %d packets with a queue at %d checkpoints, want thousands and dozens", folded, queued)
	}
}

// FuzzFoldMatchesEager runs the differential on any seed.
// testdata/fuzz/FuzzFoldMatchesEager holds its seed corpus.
func FuzzFoldMatchesEager(f *testing.F) {
	f.Add(uint64(0))
	f.Fuzz(func(t *testing.T, seed uint64) {
		foldMatchesEager(t, seed)
	})
}

// burst returns a series of n size-byte elements, all at the instant at.
func burst(n int, at time.Duration, size unit.Bytes) func() (time.Duration, unit.Bytes, bool) {
	return func() (time.Duration, unit.Bytes, bool) {
		if n == 0 {
			return 0, 0, false
		}
		n--
		return at, size, true
	}
}

// TestFoldedLinkCountsBetweenEvents: a folding link's accessors read,
// at every RunUntil return, exactly the state the event path shows —
// here three 1500-byte packets fed at 0 onto a 12 Mbps link, one
// transmission a millisecond — and a Run ends at the last departure,
// as it would at the last transmission event.
func TestFoldedLinkCountsBetweenEvents(t *testing.T) {
	s := New()
	l := s.NewLink("l", 12*unit.Mbps, time.Millisecond)
	s.Feed([]*Link{l}, KindCross, 0, burst(3, 0, 1500))
	if l.fold == nil || s.Pending() != 0 {
		t.Fatalf("the feed did not fold (%d events pending)", s.Pending())
	}
	for _, c := range []struct {
		at                  time.Duration
		forwarded, queueLen int
		served, queuedBytes unit.Bytes
	}{
		{0, 0, 2, 0, 3000},
		{time.Millisecond - 1, 0, 2, 0, 3000},
		{time.Millisecond, 1, 1, 1500, 1500},
		{2500 * time.Microsecond, 2, 0, 3000, 0},
		{3 * time.Millisecond, 3, 0, 4500, 0},
	} {
		s.RunUntil(c.at)
		got := countersOf(l)
		want := linkCounters{Forwarded: int64(c.forwarded), Served: c.served, Queued: c.queuedBytes, QueueLen: c.queueLen}
		if got != want {
			t.Errorf("at %v: %+v, want %+v", c.at, got, want)
		}
	}

	s = New()
	l = s.NewLink("l", 12*unit.Mbps, time.Millisecond)
	s.Feed([]*Link{l}, KindCross, 0, burst(3, 0, 1500))
	s.Run()
	if s.Now() != 3*time.Millisecond || l.Forwarded() != 3 || s.Stats().Folded != 3 {
		t.Errorf("Run ended at %v with %d forwarded, %d folded; want 3ms, 3, 3", s.Now(), l.Forwarded(), s.Stats().Folded)
	}
}

// TestFoldingLinkRefusesNewBehavior: what folding cannot serve may be
// installed before a link is fed (the feed then takes the event path),
// but not once the link folds — the setters panic, and a buffer bound,
// a plain field nothing intercepts, panics at the next catch-up.
func TestFoldingLinkRefusesNewBehavior(t *testing.T) {
	for name, set := range map[string]func(*Link){
		"SetDiscipline":       func(l *Link) { l.SetDiscipline(NewRED(REDConfig{}, rng.New(1))) },
		"SetLoss":             func(l *Link) { l.SetLoss(NewBernoulliLoss(0.1, rng.New(1))) },
		"SetJitter":           func(l *Link) { l.SetJitter(time.Microsecond, rng.New(1)) },
		"SetCapacitySchedule": func(l *Link) { l.SetCapacitySchedule([]CapacityStep{{0, unit.Mbps}}) },
		"Attach":              func(l *Link) { l.Attach(NewRecorder(l.Capacity)) },
		"BufferBytes":         func(l *Link) { l.BufferBytes = 3000; l.Forwarded() },
	} {
		s := New()
		l := s.NewLink("l", 12*unit.Mbps, 0)
		set(l)
		s.Feed([]*Link{l}, KindCross, 0, burst(3, 0, 1500))
		if l.fold != nil || s.Pending() != 1 {
			t.Errorf("%s before the feed: the link folds (%d events pending), want the event path", name, s.Pending())
		}

		s = New()
		l = s.NewLink("l", 12*unit.Mbps, 0)
		s.Feed([]*Link{l}, KindCross, 0, burst(3, 0, 1500))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a folding link did not panic", name)
				}
			}()
			set(l)
		}()
	}
}
