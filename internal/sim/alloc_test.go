package sim

import (
	"testing"
	"time"

	"abw/internal/unit"
)

// forwardingLoop builds the steady-state hot path: pooled cross-traffic
// packets through one link with no recorder (a recorder's rows grow
// with every packet), the simulation advanced packet by packet so every
// packet is delivered (and recycled) before the next.
type forwardingLoop struct {
	s     *Sim
	route []*Link
	gap   time.Duration
	at    time.Duration
}

func newForwardingLoop() *forwardingLoop {
	s := New()
	l := s.NewLink("l", 100*unit.Mbps, time.Millisecond)
	return &forwardingLoop{
		s:     s,
		route: []*Link{l},
		gap:   unit.GapFor(1500, 50*unit.Mbps),
	}
}

func (f *forwardingLoop) step(n int) {
	for i := 0; i < n; i++ {
		p := f.s.NewPacket()
		p.Size, p.Kind, p.Route = 1500, KindCross, f.route
		f.s.Inject(p, f.at)
		f.at += f.gap
		f.s.RunUntil(f.at)
	}
}

func TestSteadyStateForwardingDoesNotAllocate(t *testing.T) {
	f := newForwardingLoop()
	f.step(1024) // warm the event, packet, and queue pools
	if allocs := testing.AllocsPerRun(2000, func() { f.step(1) }); allocs != 0 {
		t.Errorf("steady-state forwarding allocates %.2f per packet, want 0", allocs)
	}
}

// TestFeedDoesNotAllocatePerPacket: a feed is one object and at most
// one pending event however long its series — stepping through it
// folds packets on a plain link, and on the event path builds pooled
// packets and reuses pooled events, nothing else.
func TestFeedDoesNotAllocatePerPacket(t *testing.T) {
	for _, eager := range []bool{false, true} {
		was := SetEagerFeeds(eager)
		f := newForwardingLoop()
		var next time.Duration
		f.s.Feed(f.route, KindCross, 0, func() (time.Duration, unit.Bytes, bool) {
			next += f.gap
			return next - f.gap, 1500, true
		})
		SetEagerFeeds(was)
		f.s.RunUntil(1024 * f.gap) // warm the pools
		// One event for the feed, the rest for the packets in
		// transmission and propagation (1 ms of 240 µs gaps).
		if n := f.s.Pending(); n > 8 {
			t.Fatalf("eager %v: %d events pending mid-feed, want the feed's one plus a few packets in flight", eager, n)
		}
		allocs := testing.AllocsPerRun(2000, func() {
			f.at = f.s.Now() + f.gap
			f.s.RunUntil(f.at)
		})
		if allocs != 0 {
			t.Errorf("eager %v: a running feed allocates %.2f per packet, want 0", eager, allocs)
		}
	}
}

// BenchmarkLinkForwarding measures the full per-packet cost of the
// simulator hot path — injection event, FIFO, transmission-complete
// event, release at the end of the route — at 0 allocs/op in steady
// state.
func BenchmarkLinkForwarding(b *testing.B) {
	f := newForwardingLoop()
	f.step(1024)
	b.ReportAllocs()
	b.ResetTimer()
	f.step(b.N)
}

// BenchmarkLinkForwardingUnpooled is the same loop with pooling off —
// the before/after of the free-list work, kept honest by CI.
func BenchmarkLinkForwardingUnpooled(b *testing.B) {
	f := newForwardingLoop()
	f.s.SetPooling(false)
	f.step(1024)
	b.ReportAllocs()
	b.ResetTimer()
	f.step(b.N)
}
