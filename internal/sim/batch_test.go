package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"abw/internal/crosstraffic"
	"abw/internal/rng"
	"abw/internal/unit"
)

// streamPath builds hops sealed links at 100 Mbps, each set up by set
// (if not nil) and then fed its own one-hop CBR series at half the
// capacity.
func streamPath(hops int, set func(h int, l *Link)) (*Sim, []*Link) {
	s := New()
	links := make([]*Link, hops)
	for h := range links {
		links[h] = s.NewLink(fmt.Sprintf("hop%d", h), 100*unit.Mbps, time.Millisecond)
		if set != nil {
			set(h, links[h])
		}
		p := crosstraffic.CBR(crosstraffic.Stream{Rate: 50 * unit.Mbps, Sizes: rng.FixedSize(1500)}).Over(time.Duration(h)*time.Microsecond, time.Hour)
		s.Feed(links[h:h+1], KindCross, 1000+h, p.Next)
	}
	s.Seal(links...)
	return s, links
}

// BenchmarkProbeStream is the probe-stream rung: ns per probe packet
// per hop for 100-packet streams at 40 Mbps over 1 and 20 plain
// folding hops, batched and on the event path (SetEagerProbes). The
// time includes admitting the CBR cross traffic the stream meets, the
// same on both paths; the stream allocates nothing in steady state.
func BenchmarkProbeStream(b *testing.B) {
	const n = 100
	for _, hops := range []int{1, 20} {
		for _, eager := range []bool{false, true} {
			name := fmt.Sprintf("hops=%d/batch", hops)
			if eager {
				name = fmt.Sprintf("hops=%d/event", hops)
			}
			b.Run(name, func(b *testing.B) {
				defer SetEagerProbes(SetEagerProbes(eager))
				s, links := streamPath(hops, nil)
				sends := make([]time.Duration, n)
				var resolved int
				arrive := func(*Packet, time.Duration) { resolved++ }
				proto := Packet{Size: 1500, Kind: KindProbe, Route: links, OnArrive: arrive}
				stream := func() {
					start := s.Now() + time.Millisecond
					for i := range sends {
						sends[i] = start + time.Duration(i)*unit.GapFor(1500, 40*unit.Mbps)
					}
					resolved = 0
					s.InjectStream(proto, sends)
					for resolved < n {
						s.RunUntil(s.Now() + 5*time.Millisecond)
					}
				}
				for i := 0; i < 10; i++ {
					stream() // warm the pools and the departure lists
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					stream()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*hops), "ns/pkt-hop")
			})
		}
	}
}

// TestStreamBatchesWhereNothingElseCanReach: a stream batches only
// over sealed links without a discipline, recorder or buffer bound, a
// capacity schedule only on its first link, and only while no
// event-driven packet and no other batched stream is in flight.
func TestStreamBatchesWhereNothingElseCanReach(t *testing.T) {
	steps := []CapacityStep{{0, 100 * unit.Mbps}, {5 * time.Millisecond, 50 * unit.Mbps}}
	for _, c := range []struct {
		name    string
		link    func(h int, l *Link)
		then    func(s *Sim, links []*Link)
		batches bool
	}{
		{"sealed", nil, nil, true},
		{"unsealed", nil, func(_ *Sim, l []*Link) { l[1].sealed = false }, false},
		{"lossy and jittered", func(h int, l *Link) {
			l.SetLoss(NewBernoulliLoss(0.1, rng.New(1)))
			l.SetJitter(time.Millisecond, rng.New(2))
		}, nil, true},
		{"buffer bound", func(h int, l *Link) { l.SetBuffer(30_000) }, nil, false},
		{"capacity schedule first", func(h int, l *Link) {
			if h == 0 {
				l.SetCapacitySchedule(steps)
			}
		}, nil, true},
		{"capacity schedule later", func(h int, l *Link) {
			if h == 1 {
				l.SetCapacitySchedule(steps)
			}
		}, nil, false},
		{"discipline", func(h int, l *Link) { l.SetDiscipline(NewCoDel(CoDelConfig{})) }, nil, false},
		{"packet in flight", nil, func(s *Sim, l []*Link) {
			p := s.NewPacket()
			p.Size, p.Route = 1500, l
			s.Inject(p, 0)
		}, false},
		{"stream in flight", nil, func(s *Sim, l []*Link) {
			s.InjectStream(Packet{Size: 1500, Route: l, OnArrive: func(*Packet, time.Duration) {}}, []time.Duration{0})
		}, false},
	} {
		s, links := streamPath(2, c.link)
		if c.then != nil {
			c.then(s, links)
		}
		var resolved int
		sends := []time.Duration{time.Millisecond, 2 * time.Millisecond}
		s.InjectStream(Packet{Size: 1500, Kind: KindProbe, Route: links,
			OnArrive: func(*Packet, time.Duration) { resolved++ },
			OnDrop:   func(*Packet, *Link, time.Duration) { resolved++ },
		}, sends)
		probeEvents := s.Stats().ProbeEvents
		s.RunUntil(50 * time.Millisecond)
		// Batched, the stream costs one event per packet at most; on the
		// event path it costs one per injection at least.
		st := s.Stats()
		if batched := st.ProbeEvents-probeEvents <= uint64(len(sends)) && st.Batched > 0; batched != c.batches || resolved != len(sends) {
			t.Errorf("%s: batched %v with %d of %d packets resolved, want batched %v", c.name, batched, resolved, len(sends), c.batches)
		}
	}
}

// TestBatchRefusesPacketsBehindIt: a packet that reaches a link where a
// batch has already admitted later arrivals panics rather than be
// served out of order — here one injected after the stream was handed
// off, and an event-path feed started then.
func TestBatchRefusesPacketsBehindIt(t *testing.T) {
	for name, late := range map[string]func(s *Sim, links []*Link){
		"injected": func(s *Sim, links []*Link) {
			s.Inject(&Packet{Size: 1500, Route: links}, 5*time.Millisecond)
		},
		"fed": func(s *Sim, links []*Link) {
			s.Feed(links, KindCross, 0, burst(1, 5*time.Millisecond, 1500))
		},
	} {
		s, links := streamPath(1, nil)
		sends := make([]time.Duration, 20)
		for i := range sends {
			sends[i] = time.Duration(i) * time.Millisecond
		}
		s.InjectStream(Packet{Size: 1500, Route: links, OnArrive: func(*Packet, time.Duration) {}}, sends)
		late(s, links)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a packet behind the batch was served", name)
				}
			}()
			s.RunUntil(50 * time.Millisecond)
		}()
	}
}

// TestBatchedStreamStopsLikeEvents: a callback that stops the
// simulation stops a batched stream's delivery after its own packet, as
// it would stop the event path, whose packets are events of their own.
// Here four packets are lost at one instant, and the first drop stops
// each run.
func TestBatchedStreamStopsLikeEvents(t *testing.T) {
	run := func(eager bool) (resolved []int, now []time.Duration) {
		defer SetEagerProbes(SetEagerProbes(eager))
		s, links := streamPath(1, func(_ int, l *Link) { l.SetLoss(NewBernoulliLoss(0.9999, rng.New(1))) })
		n := 0
		drop := func(*Packet, *Link, time.Duration) { n++; s.Stop() }
		s.InjectStream(Packet{Size: 1500, Kind: KindProbe, Route: links, OnDrop: drop}, []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond})
		for i := 0; i < 5; i++ {
			s.RunUntil(10 * time.Millisecond)
			resolved, now = append(resolved, n), append(now, s.Now())
		}
		return resolved, now
	}
	gotN, gotT := run(false)
	wantN, wantT := run(true)
	if !slices.Equal(gotN, wantN) || !slices.Equal(gotT, wantT) {
		t.Errorf("batched: %v packets dropped by runs ending at %v; event path %v at %v", gotN, gotT, wantN, wantT)
	}
}
