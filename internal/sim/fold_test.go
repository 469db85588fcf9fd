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

// This file pins folding and batching against the event path they
// replace. The differential runs one seeded script twice — once as
// written, once with SetEagerFeeds(true) so every feed schedules its
// events and no link folds — and demands the same observable run: every
// event-driven packet's arrival past each hop it crosses, every link's
// counters and every source's pull count at each RunUntil return, and
// the final clock. Stream seeds (streamSeeds) send whole-route probe
// streams instead, and also run with SetEagerProbes(true) alone, which
// keeps the fold and forces the streams onto the event path.

const foldHorizon = 200 * time.Millisecond

// The tie hops of the script run at gridRate, which sends a 1500-byte
// packet in exactly a millisecond, and are fed bursts of gridBurst of
// them, so their departures fall on the millisecond grid.
const (
	gridRate  = 12 * unit.Mbps
	gridBurst = 4
)

// A seed whose top two bits are 01 runs the script in stream mode.
const streamSeeds = 1 << 62

// tieRate sends a 40-byte packet in a nanosecond; a link at that rate
// with a 4 ns jitter bound reorders back-to-back packets, and hands
// many of them to the next hop at one nanosecond.
const tieRate = 320 * unit.Gbps

// listed is a fed series read off a list of (time, size) elements.
type listed []element

type element struct {
	at   time.Duration
	size unit.Bytes
}

func (l *listed) Next() (time.Duration, unit.Bytes, bool) {
	if len(*l) == 0 {
		return 0, 0, false
	}
	e := (*l)[0]
	*l = (*l)[1:]
	return e.at, e.size, true
}

// pullCounter is a Process that counts the packets a feed pulls from
// the Process it wraps.
type pullCounter struct {
	crosstraffic.Process
	Packets int64
}

// Next passes on the wrapped Process's next packet and counts it.
func (c *pullCounter) Next() (time.Duration, unit.Bytes, bool) {
	at, size, ok := c.Process.Next()
	if ok {
		c.Packets++
	}
	return at, size, ok
}

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
	Hops    []string          // what each hop is, for messages
	Folds   []bool            // which hops fold: plain FIFOs fed a source
	Probes  [][]time.Duration // per probe, its arrival past each hop crossed; -1 marks a drop
	Checks  []foldCheckpoint
	Folded  uint64
	Batched uint64
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
//
// In stream mode the path is sealed, and instead of single probes the
// script sends whole-route probe streams from a random hop, one in
// flight at a time, each handed off a random gap after the last one
// resolved. Their packets aim at the instants the fed series emit at,
// at the tie hops' departures and capacity steps, at random instants,
// and in bursts at one instant. A third of the stream seeds lead the
// path with two tie-rate hops: the first reorders a burst, the second
// hands its packets to the next hop at one nanosecond out of their
// send order.
func foldScript(t testing.TB, seed uint64, eagerFeeds, eagerProbes bool) foldOutcome {
	defer SetEagerFeeds(SetEagerFeeds(eagerFeeds))
	defer SetEagerProbes(SetEagerProbes(eagerProbes))
	r := rng.New(seed)
	s := New()
	var out foldOutcome
	streaming := seed>>62 == 1

	links := make([]*Link, 1+r.Intn(4))
	kinds, tieRun := 17, false
	if streaming {
		kinds, tieRun = 18, r.Intn(3) == 0
		if tieRun {
			links = make([]*Link, 3+r.Intn(2))
		}
	}
	grids := make([]bool, len(links)) // the tie hops, on gridRate's millisecond grid
	quiet := make([]bool, len(links)) // hops no source is fed onto
	for h := range links {
		capacity := unit.Rate(10+90*r.Float64()) * unit.Mbps
		var prop time.Duration
		if r.Float64() < 0.7 {
			prop = time.Duration(r.Float64() * float64(2*time.Millisecond))
		}
		l := s.NewLink(fmt.Sprintf("hop%d", h), capacity, prop)
		kind := "plain"
		pick := r.Intn(kinds)
		if tieRun && h < 2 {
			pick = 17
		}
		switch pick {
		case 0:
			kind = "buffer"
			l.SetBuffer(unit.Bytes(6000 + r.Intn(30000)))
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
		case 7:
			kind = "lossy+jitter"
			l.SetLoss(NewGilbertElliott(GilbertElliottConfig{PGoodBad: 0.02}, rng.New(r.Uint64())))
			l.SetJitter(time.Duration(r.Float64()*float64(300*time.Microsecond))+1, rng.New(r.Uint64()))
		case 8:
			kind, grids[h] = "tight", true
			capacity, l.Capacity = gridRate, gridRate
			l.SetBuffer(unit.Bytes(gridBurst-1)*1500 + unit.Bytes(r.Intn(1500)))
		case 9:
			kind, grids[h] = "steps", true
			capacity, l.Capacity = gridRate, gridRate
			steps := []CapacityStep{{0, gridRate}}
			for at := time.Duration(0); ; {
				at += time.Duration(1+r.Intn(40)) * time.Millisecond
				if at > foldHorizon {
					break
				}
				steps = append(steps, CapacityStep{at, gridRate / unit.Rate(1+r.Intn(3))})
			}
			l.SetCapacitySchedule(steps)
			if r.Intn(2) == 0 {
				l.SetBuffer(unit.Bytes(gridBurst-1)*1500 + unit.Bytes(r.Intn(1500)))
			}
		case 17:
			kind, quiet[h] = "jitter-tie", true
			capacity, l.Capacity = tieRate, tieRate
			l.SetJitter(4, rng.New(r.Uint64()))
		}
		out.Hops = append(out.Hops, fmt.Sprintf("%s %s %v prop %v", l.Name, kind, capacity, prop))
		eager := kind == "red" || kind == "codel"
		out.Folds = append(out.Folds, !eager) // cleared below if no source lands on it
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
		if grids[h] || quiet[h] {
			continue // off-grid arrivals would break the ties
		}
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
		out.Folds[h] = out.Folds[h] && (grids[h] || slices.ContainsFunc(sources, func(src source) bool { return src.hop == h }))
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
	var probeSized func(h0 int, at time.Duration, size unit.Bytes)
	probe := func(h0 int, at time.Duration) { probeSized(h0, at, sizes[r.Intn(len(sizes))]) }
	if streaming {
		probe = func(int, time.Duration) {}
	}
	probeSized = func(h0 int, at time.Duration, size unit.Bytes) {
		if streaming {
			return
		}
		id := len(out.Probes)
		out.Probes = append(out.Probes, nil)
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
	// The tie hops: every period a burst of gridBurst 1500-byte packets,
	// which fills the buffer to within a packet of its bound and leaves
	// one a millisecond, and single fed elements on those departures.
	// D[h] holds the departure instants, which probes aim at from every
	// side: injected before the feeds start (a) and after (b), from an
	// event at the instant (c), from the start of the departing packet's
	// transmission, scheduled before the feeds start and after (d), and
	// from the nanosecond before (e).
	D := make([][]time.Duration, len(links))
	var gridSeries []*listed
	var gridHops []int
	tie := func(h int, at time.Duration) { probeSized(h, at, []unit.Bytes{750, 1500, 1500}[r.Intn(3)]) }
	for h := range links {
		if !grids[h] {
			continue
		}
		period := time.Duration(gridBurst+1+r.Intn(4)) * time.Millisecond
		bursts, singles := listed{}, listed{}
		for at := time.Duration(0); at < foldHorizon; at += period {
			for j := 1; j <= gridBurst; j++ {
				bursts = append(bursts, element{at, 1500})
				D[h] = append(D[h], at+time.Duration(j)*time.Millisecond)
				if r.Intn(4) == 0 {
					singles = append(singles, element{at + time.Duration(j)*time.Millisecond, 1500})
				}
			}
		}
		gridSeries = append(gridSeries, &bursts, &singles)
		gridHops = append(gridHops, h, h)
		for _, d := range D[h] {
			switch h, d := h, d; r.Intn(8) {
			case 0: // (a)
				tie(h, d)
			case 1: // (c)
				s.At(d, func() { tie(h, d) })
			case 2: // (d), before the feeds
				s.At(d-time.Millisecond, func() { tie(h, d) })
			case 3: // (e)
				s.At(d-1, func() { tie(h, d) })
			}
		}
	}
	counters := make([]*pullCounter, len(sources))
	for k, src := range sources {
		counters[k] = &pullCounter{Process: src.build()}
		s.Feed(links[src.hop:src.hop+1], KindCross, 1000+k, counters[k].Next)
	}
	for k, g := range gridSeries {
		ctr := &pullCounter{Process: g}
		counters = append(counters, ctr)
		s.Feed(links[gridHops[k]:gridHops[k]+1], KindCross, 2000+k, ctr.Next)
	}
	for h := range D {
		for _, d := range D[h] {
			switch h, d := h, d; r.Intn(6) {
			case 0: // (b)
				tie(h, d)
			case 1: // (d), after the feeds
				s.At(d-time.Millisecond, func() { tie(h, d) })
			}
		}
	}
	if streaming {
		s.Seal(links...)
		sendStreams(s, r, links, T, D, quiet, &out)
	} else if r.Intn(2) == 0 {
		load := &pullCounter{Process: crosstraffic.CBR(crosstraffic.Stream{
			Rate: links[0].Capacity / 10, Sizes: rng.FixedSize(200)}).Over(foldHorizon/4, foldHorizon/2)}
		counters = append(counters, load)
		s.Feed(links, KindProbe, 0, load.Next)
	}
	for h := range T {
		ties(h, pick(0, 6), pick(8, 24)) // (b)
	}

	// check reads the pull counts first: a link's accessors catch it up,
	// pulling on its series.
	// A batch admits fed elements ahead of the clock, pulling them
	// early, so stream mode compares pulls at the end of the run only.
	check := func(final bool) {
		c := foldCheckpoint{Now: s.Now()}
		for _, ctr := range counters {
			if !streaming || final {
				c.Pulls = append(c.Pulls, ctr.Packets)
			}
		}
		for _, l := range links {
			c.Links = append(c.Links, countersOf(l))
		}
		out.Checks = append(out.Checks, c)
	}
	for s.Now() < foldHorizon+20*time.Millisecond {
		s.RunUntil(s.Now() + time.Duration(1+r.Intn(10_000_000)))
		check(false)
	}
	s.Run()
	check(true)
	out.Folded, out.Batched = s.Stats().Folded, s.Stats().Batched
	return out
}

// sendStreams starts the stream mode's chain of whole-route probe
// streams: each is handed off by an event a random gap after the last
// packet of the one before it resolved, until the horizon.
func sendStreams(s *Sim, r *rng.Rand, links []*Link, T, D [][]time.Duration, quiet []bool, out *foldOutcome) {
	sizes := []unit.Bytes{40, 576, 1500}
	// after returns one of the next few instants of list at or after t.
	after := func(list []time.Duration, t time.Duration) (time.Duration, bool) {
		i, _ := slices.BinarySearch(list, t)
		if i == len(list) {
			return 0, false
		}
		return list[min(i+r.Intn(8), len(list)-1)], true
	}
	var send func()
	send = func() {
		now := s.Now()
		if now >= foldHorizon {
			return
		}
		h0, size, n := r.Intn(len(links)), sizes[r.Intn(len(sizes))], 2+r.Intn(30)
		var sends []time.Duration
		if quiet[h0] {
			size = 40 // back to back at one instant
			at := now + time.Duration(r.Intn(1000))
			for len(sends) < n {
				sends = append(sends, at)
			}
		}
		for len(sends) < n {
			at := now + time.Duration(r.Intn(int(3*time.Millisecond)))
			switch r.Intn(4) {
			case 0: // a fed instant
				if t, ok := after(T[h0], now); ok {
					at = t
				}
			case 1: // a tie hop's departure
				if t, ok := after(D[h0], now); ok {
					at = t
				}
			case 2: // a capacity step
				var steps []time.Duration
				for _, st := range links[h0].capSteps {
					steps = append(steps, st.At)
				}
				if t, ok := after(steps, now); ok {
					at = t
				}
			}
			for k := r.Intn(3); k >= 0 && len(sends) < n; k-- {
				sends = append(sends, at)
			}
		}
		slices.Sort(sends)
		first, left := len(out.Probes), n
		out.Probes = append(out.Probes, make([][]time.Duration, n)...)
		gap := time.Duration(r.Intn(int(5 * time.Millisecond)))
		resolved := func(seq int, at time.Duration) {
			out.Probes[first+seq] = append(out.Probes[first+seq], at)
			if left--; left == 0 {
				s.After(gap, send)
			}
		}
		s.InjectStream(Packet{Size: size, Kind: KindProbe, Route: links[h0:],
			OnArrive: func(p *Packet, at time.Duration) { resolved(p.Seq, at) },
			OnDrop:   func(p *Packet, _ *Link, _ time.Duration) { resolved(p.Seq, -1) },
		}, sends)
	}
	s.At(time.Duration(r.Intn(int(2*time.Millisecond))), send)
}

// foldMatchesEager runs the script at seed both ways, and a stream
// seed also with its streams forced onto the event path, and fails at
// the first difference. It returns the packets folded and batched and
// the checkpoints at which a folding link had packets waiting.
func foldMatchesEager(t testing.TB, seed uint64) (folded, batched uint64, queued int) {
	got := foldScript(t, seed, false, false)
	if seed>>62 == 1 {
		want := foldScript(t, seed, false, true)
		if want.Batched != 0 {
			t.Fatalf("seed %d: the event-path streams batched %d packets", seed, want.Batched)
		}
		matchFold(t, seed, got, want)
	}
	want := foldScript(t, seed, true, true)
	if want.Folded != 0 || want.Batched != 0 {
		t.Fatalf("seed %d: the eager oracle folded %d and batched %d packets", seed, want.Folded, want.Batched)
	}
	matchFold(t, seed, got, want)
	for _, c := range got.Checks {
		for h, l := range c.Links {
			if got.Folds[h] && l.QueueLen > 0 {
				queued++
			}
		}
	}
	return got.Folded, got.Batched, queued
}

// matchFold fails at the first difference between two runs of a seed.
func matchFold(t testing.TB, seed uint64, got, want foldOutcome) {
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
}

// TestFoldMatchesEager runs the differential on fixed seeds and checks
// that the script has teeth: together the seeds fold thousands of
// packets and catch folding links with a queue between events, and the
// stream seeds batch thousands of probe hop forwards.
func TestFoldMatchesEager(t *testing.T) {
	var folded, batched uint64
	var queued int
	for seed := uint64(1); seed <= 40; seed++ {
		f, _, q := foldMatchesEager(t, seed)
		folded, queued = folded+f, queued+q
		_, b, _ := foldMatchesEager(t, streamSeeds+seed)
		batched += b
	}
	t.Logf("forty seeds folded %d packets; a folding link had a queue at %d checkpoints; forty stream seeds batched %d probe hop forwards", folded, queued, batched)
	if folded < 10_000 || queued < 20 || batched < 10_000 {
		t.Errorf("forty seeds folded %d packets with a queue at %d checkpoints, and forty stream seeds batched %d; want thousands, dozens and thousands", folded, queued, batched)
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

// TestFoldingLinkRefusesNewBehavior: only a discipline installed
// before a link is fed keeps it on the event path; loss,
// jitter, a capacity schedule and a buffer bound fold. Once the link
// folds, every setter panics: its catch-up was chosen when it was fed.
func TestFoldingLinkRefusesNewBehavior(t *testing.T) {
	for name, c := range map[string]struct {
		set   func(*Link)
		folds bool
	}{
		"SetDiscipline":       {func(l *Link) { l.SetDiscipline(NewRED(REDConfig{}, rng.New(1))) }, false},
		"SetLoss":             {func(l *Link) { l.SetLoss(NewBernoulliLoss(0.1, rng.New(1))) }, true},
		"SetJitter":           {func(l *Link) { l.SetJitter(time.Microsecond, rng.New(1)) }, true},
		"SetCapacitySchedule": {func(l *Link) { l.SetCapacitySchedule([]CapacityStep{{0, unit.Mbps}}) }, true},
		"SetBuffer":           {func(l *Link) { l.SetBuffer(3000) }, true},
	} {
		set := c.set
		s := New()
		l := s.NewLink("l", 12*unit.Mbps, 0)
		set(l)
		s.Feed([]*Link{l}, KindCross, 0, burst(3, 0, 1500))
		if folds := l.fold != nil && s.Pending() == 0; folds != c.folds {
			t.Errorf("%s before the feed: folds %v (%d events pending), want %v", name, folds, s.Pending(), c.folds)
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
