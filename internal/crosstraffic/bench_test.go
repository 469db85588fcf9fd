package crosstraffic

import (
	"testing"
	"time"

	"abw/internal/rng"
	"abw/internal/sim"
	"abw/internal/unit"
)

// BenchmarkSourcePacket is the source rung of the simulator ladder: one
// source at half load, fed onto one 1 ms-propagation link with no
// recorder, the clock advanced until b.N packets have been forwarded.
// It reports the wall time, the events fired (from the simulator's own
// counters) and the allocations per packet; the last must be 0.
func BenchmarkSourcePacket(b *testing.B) {
	cfg := Stream{Rate: 50 * unit.Mbps}
	for _, bc := range []struct {
		name string
		m    func() Model
	}{
		{"cbr", func() Model { return CBR(cfg) }},
		{"poisson", func() Model { return Poisson(cfg, rng.New(1)) }},
		{"paretoonoff", func() Model { return ParetoOnOff(ParetoOnOffConfig{Stream: cfg, OffCap: 200}, rng.New(1)) }},
		{"paretoarrivals", func() Model { return ParetoArrivals(cfg, 1.9, rng.New(1)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := sim.New()
			l := s.NewLink("l", 100*unit.Mbps, time.Millisecond)
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

// TestSourcePacketDoesNotAllocate holds the benchmark's allocation
// figure in the ordinary test run, for the renewal and the burst
// process alike.
func TestSourcePacketDoesNotAllocate(t *testing.T) {
	cfg := Stream{Rate: 50 * unit.Mbps}
	for name, m := range map[string]Model{
		"poisson":     Poisson(cfg, rng.New(1)),
		"paretoonoff": ParetoOnOff(ParetoOnOffConfig{Stream: cfg, OffCap: 200}, rng.New(1)),
	} {
		s := sim.New()
		l := s.NewLink("l", 100*unit.Mbps, time.Millisecond)
		feed(s, []*sim.Link{l}, m, 0, 1<<62)
		s.RunUntil(time.Second)
		if allocs := testing.AllocsPerRun(100, func() { s.RunUntil(s.Now() + 10*time.Millisecond) }); allocs != 0 {
			t.Errorf("a running %s source allocates %.2f per 10 ms (~40 packets), want 0", name, allocs)
		}
	}
}
