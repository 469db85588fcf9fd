package crosstraffic

import (
	"testing"
	"time"

	"abw/internal/rng"
	"abw/internal/sim"
	"abw/internal/unit"
)

// sourceLinks are the ways a source's packets cross a link: folded by
// a plain FIFO, folded by a lossy, a buffered or a fading one (its one
// capacity step falls in the warm-up), or carried by events on a RED
// one.
var sourceLinks = []struct {
	name   string
	events float64 // per packet
	setup  func(*sim.Link)
}{
	{"folded", 0, func(*sim.Link) {}},
	{"lossy", 0, func(l *sim.Link) { l.SetLoss(sim.NewBernoulliLoss(0.01, rng.New(9))) }},
	{"buffered", 0, func(l *sim.Link) { l.SetBuffer(30000) }},
	{"fading", 0, func(l *sim.Link) {
		l.SetCapacitySchedule([]sim.CapacityStep{{At: 0, Rate: 100 * unit.Mbps}, {At: 100 * time.Millisecond, Rate: 80 * unit.Mbps}})
	}},
	{"red", 2, func(l *sim.Link) { l.SetDiscipline(sim.NewRED(sim.REDConfig{}, rng.New(9))) }},
}

// BenchmarkSourcePacket is the source rung of the simulator ladder: one
// source at half load, fed onto one 1 ms-propagation link with no
// recorder, the clock advanced until b.N packets have been forwarded.
// It reports the wall time, the events fired (from the simulator's own
// counters) and the allocations per packet; the last must be 0, and the
// events 0 on a folding link and 2 on a RED one.
func BenchmarkSourcePacket(b *testing.B) {
	cfg := Stream{Rate: 50 * unit.Mbps}
	for _, lk := range sourceLinks {
		for _, bc := range []struct {
			name string
			m    func() Model
		}{
			{"cbr", func() Model { return CBR(cfg) }},
			{"poisson", func() Model { return Poisson(cfg, rng.New(1)) }},
			{"paretoonoff", func() Model { return ParetoOnOff(ParetoOnOffConfig{Stream: cfg, OffCap: 200}, rng.New(1)) }},
			{"paretoarrivals", func() Model { return ParetoArrivals(cfg, 1.9, rng.New(1)) }},
		} {
			b.Run(lk.name+"/"+bc.name, func(b *testing.B) {
				s := sim.New()
				l := s.NewLink("l", 100*unit.Mbps, time.Millisecond)
				lk.setup(l)
				feed(s, []*sim.Link{l}, bc.m(), 0, 1<<62)
				// advance runs the clock in slices of ~1000 mean gaps until
				// the link has forwarded n packets.
				slice := 1000 * unit.GapFor(1500, cfg.Rate)
				advance := func(n int64) {
					for l.Forwarded() < n {
						s.RunUntil(s.Now() + slice)
					}
				}
				advance(4096) // warm the event, packet and queue pools
				f0, e0 := l.Forwarded(), s.Stats().Fired
				b.ReportAllocs()
				b.ResetTimer()
				advance(f0 + int64(b.N))
				b.StopTimer()
				n := float64(l.Forwarded() - f0)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/packet")
				b.ReportMetric(float64(s.Stats().Fired-e0)/n, "events/packet")
			})
		}
	}
}

// TestSourcePacketDoesNotAllocate holds the benchmark's allocation and
// event figures in the ordinary test run, for the renewal and the burst
// process alike, on both kinds of link.
func TestSourcePacketDoesNotAllocate(t *testing.T) {
	cfg := Stream{Rate: 50 * unit.Mbps}
	for _, lk := range sourceLinks {
		for name, m := range map[string]Model{
			"poisson":     Poisson(cfg, rng.New(1)),
			"paretoonoff": ParetoOnOff(ParetoOnOffConfig{Stream: cfg, OffCap: 200}, rng.New(1)),
		} {
			name = lk.name + "/" + name
			s := sim.New()
			l := s.NewLink("l", 100*unit.Mbps, time.Millisecond)
			lk.setup(l)
			feed(s, []*sim.Link{l}, m, 0, 1<<62)
			s.RunUntil(time.Second)
			if allocs := testing.AllocsPerRun(100, func() { s.RunUntil(s.Now() + 10*time.Millisecond) }); allocs != 0 {
				t.Errorf("a running %s source allocates %.2f per 10 ms (~40 packets), want 0", name, allocs)
			}
			f0, e0 := l.Forwarded(), s.Stats().Fired
			s.RunUntil(s.Now() + time.Second)
			n := float64(l.Forwarded() - f0)
			if got := float64(s.Stats().Fired-e0) / n; got < lk.events-0.01 || got > lk.events+0.01 {
				t.Errorf("%s: %.3f events per packet over %.0f packets, want %.0f", name, got, n, lk.events)
			}
		}
	}
}
