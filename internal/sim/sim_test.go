package sim

import (
	"testing"
	"time"

	"abw/internal/unit"
)

func TestClockStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Errorf("Now() = %v, want 0", s.Now())
	}
}

func TestEventOrderAndClock(t *testing.T) {
	s := New()
	var order []time.Duration
	s.At(30, func() { order = append(order, s.Now()) })
	s.At(10, func() { order = append(order, s.Now()) })
	s.After(20, func() { order = append(order, s.Now()) })
	s.Run()
	want := []time.Duration{10, 20, 30}
	if len(order) != 3 {
		t.Fatalf("fired %d events, want 3", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		s.At(50, func() {})
	})
	s.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	s.After(-time.Second, func() {})
}

func TestRunUntil(t *testing.T) {
	s := New()
	fired := 0
	s.At(10, func() { fired++ })
	s.At(20, func() { fired++ })
	s.At(30, func() { fired++ })
	s.RunUntil(20)
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if s.Now() != 20 {
		t.Errorf("Now() = %v, want 20", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
	s.Run()
	if fired != 3 {
		t.Errorf("after Run fired = %d, want 3", fired)
	}
}

func TestStop(t *testing.T) {
	s := New()
	fired := 0
	s.At(10, func() { fired++; s.Stop() })
	s.At(20, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (Stop should halt the loop)", fired)
	}
}

func TestStopBeforeRunSticks(t *testing.T) {
	// Regression: Run/RunUntil used to reset the stop flag on entry, so
	// a Stop issued before the run was silently lost. A pre-run Stop
	// must make the next run return immediately, then be consumed.
	s := New()
	fired := 0
	s.At(10, func() { fired++ })
	s.Stop()
	s.Run()
	if fired != 0 {
		t.Fatalf("fired = %d, want 0 (pre-run Stop lost)", fired)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0 (stopped run must not advance the clock)", s.Now())
	}
	// The stop is consumed: a second Run proceeds normally.
	s.Run()
	if fired != 1 {
		t.Fatalf("after second Run fired = %d, want 1", fired)
	}
}

func TestStopBeforeRunUntilSticks(t *testing.T) {
	s := New()
	fired := 0
	s.At(10, func() { fired++ })
	s.Stop()
	s.RunUntil(20)
	if fired != 0 || s.Now() != 0 {
		t.Fatalf("fired = %d, Now() = %v; want 0, 0", fired, s.Now())
	}
	s.RunUntil(20)
	if fired != 1 || s.Now() != 20 {
		t.Fatalf("after second RunUntil fired = %d, Now() = %v; want 1, 20", fired, s.Now())
	}
}

// TestStopInsideRunUntilKeepsClock: a Stop inside RunUntil leaves the
// clock at the stopping event's time. Events between it and the run's
// end time are still pending, and a clock set past them would run
// backwards when they fire.
func TestStopInsideRunUntilKeepsClock(t *testing.T) {
	s := New()
	s.At(10, s.Stop)
	var firedAt time.Duration
	s.At(15, func() { firedAt = s.Now() })
	s.RunUntil(20)
	if s.Now() != 10 || s.Pending() != 1 {
		t.Fatalf("after a Stop at 10: Now() = %v with %d pending, want 10ns with 1", s.Now(), s.Pending())
	}
	s.RunUntil(20)
	if firedAt != 15 || s.Now() != 20 {
		t.Fatalf("the 15 ns event read Now() = %v, clock ends at %v; want 15ns, 20ns", firedAt, s.Now())
	}
}

func TestCancelEvent(t *testing.T) {
	s := New()
	fired := false
	e := s.At(10, func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Error("canceled event fired")
	}
}

func TestSinglePacketDelay(t *testing.T) {
	// One 1500-byte packet over a 100 Mbps link with 1 ms propagation:
	// delivery at tx (120 µs) + prop (1 ms).
	s := New()
	l := s.NewLink("l0", 100*unit.Mbps, time.Millisecond)
	var arrived time.Duration
	p := &Packet{
		Size:  1500,
		Route: []*Link{l},
		OnArrive: func(_ *Packet, at time.Duration) {
			arrived = at
		},
	}
	s.Inject(p, 0)
	s.Run()
	want := 120*time.Microsecond + time.Millisecond
	if arrived != want {
		t.Errorf("arrival = %v, want %v", arrived, want)
	}
	if p.SentAt != 0 {
		t.Errorf("SentAt = %v, want 0", p.SentAt)
	}
}

func TestBackToBackQueueing(t *testing.T) {
	// Two packets injected at the same instant: the second waits a full
	// transmission time behind the first.
	s := New()
	l := s.NewLink("l0", 100*unit.Mbps, 0)
	var times []time.Duration
	for i := 0; i < 2; i++ {
		s.Inject(&Packet{
			Size:  1500,
			Seq:   i,
			Route: []*Link{l},
			OnArrive: func(_ *Packet, at time.Duration) {
				times = append(times, at)
			},
		}, 0)
	}
	s.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(times))
	}
	tx := 120 * time.Microsecond
	if times[0] != tx || times[1] != 2*tx {
		t.Errorf("deliveries at %v, want [%v %v]", times, tx, 2*tx)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	s := New()
	l := s.NewLink("l0", 10*unit.Mbps, 0)
	var seqs []int
	for i := 0; i < 50; i++ {
		i := i
		s.Inject(&Packet{
			Size:  1500,
			Seq:   i,
			Route: []*Link{l},
			OnArrive: func(p *Packet, _ time.Duration) {
				seqs = append(seqs, p.Seq)
			},
		}, time.Duration(i)*time.Microsecond)
	}
	s.Run()
	for i, seq := range seqs {
		if seq != i {
			t.Fatalf("FIFO violated: position %d has seq %d", i, seq)
		}
	}
}

func TestMultiHopDelivery(t *testing.T) {
	// 3 hops, each 100 Mbps with 1 ms prop: store-and-forward delay is
	// 3*(tx+prop) for a single packet.
	s := New()
	l1 := s.NewLink("l1", 100*unit.Mbps, time.Millisecond)
	l2 := s.NewLink("l2", 100*unit.Mbps, time.Millisecond)
	l3 := s.NewLink("l3", 100*unit.Mbps, time.Millisecond)
	var arrived time.Duration
	s.Inject(&Packet{
		Size:  1500,
		Route: []*Link{l1, l2, l3},
		OnArrive: func(_ *Packet, at time.Duration) {
			arrived = at
		},
	}, 0)
	s.Run()
	want := 3 * (120*time.Microsecond + time.Millisecond)
	if arrived != want {
		t.Errorf("arrival = %v, want %v", arrived, want)
	}
}

func TestMultiHopPipelining(t *testing.T) {
	// While packet 1 propagates on hop 1, packet 2 may transmit: the
	// N-packet train delay over one link is tx*N + prop, not N*(tx+prop).
	s := New()
	l := s.NewLink("l", 100*unit.Mbps, 10*time.Millisecond)
	var last time.Duration
	const n = 10
	for i := 0; i < n; i++ {
		s.Inject(&Packet{
			Size:  1500,
			Route: []*Link{l},
			OnArrive: func(_ *Packet, at time.Duration) {
				last = at
			},
		}, 0)
	}
	s.Run()
	tx := 120 * time.Microsecond
	want := time.Duration(n)*tx + 10*time.Millisecond
	if last != want {
		t.Errorf("last arrival = %v, want %v", last, want)
	}
}

func TestBufferOverflowDrops(t *testing.T) {
	s := New()
	l := s.NewLink("l", 10*unit.Mbps, 0)
	l.SetBuffer(3000) // room for two 1500B packets in queue
	delivered, dropped := 0, 0
	for i := 0; i < 10; i++ {
		s.Inject(&Packet{
			Size:     1500,
			Route:    []*Link{l},
			OnArrive: func(*Packet, time.Duration) { delivered++ },
			OnDrop:   func(*Packet, *Link, time.Duration) { dropped++ },
		}, 0)
	}
	s.Run()
	// One in service + two queued admitted; seven dropped.
	if delivered != 3 {
		t.Errorf("delivered = %d, want 3", delivered)
	}
	if dropped != 7 {
		t.Errorf("dropped = %d, want 7", dropped)
	}
	if l.Dropped() != 7 {
		t.Errorf("link drop counter = %d, want 7", l.Dropped())
	}
}

func TestUnboundedBufferNeverDrops(t *testing.T) {
	s := New()
	l := s.NewLink("l", 1*unit.Mbps, 0)
	delivered := 0
	for i := 0; i < 200; i++ {
		s.Inject(&Packet{
			Size:     1500,
			Route:    []*Link{l},
			OnArrive: func(*Packet, time.Duration) { delivered++ },
		}, 0)
	}
	s.Run()
	if delivered != 200 {
		t.Errorf("delivered = %d, want 200", delivered)
	}
	if l.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", l.Dropped())
	}
}

func TestLinkCounters(t *testing.T) {
	s := New()
	l := s.NewLink("l", 100*unit.Mbps, 0)
	for i := 0; i < 5; i++ {
		s.Inject(&Packet{Size: 1000, Route: []*Link{l}}, 0)
	}
	s.Run()
	if l.Forwarded() != 5 {
		t.Errorf("Forwarded = %d, want 5", l.Forwarded())
	}
	if l.BytesServed() != 5000 {
		t.Errorf("BytesServed = %d, want 5000", l.BytesServed())
	}
}

func TestZeroLengthRouteDeliversImmediately(t *testing.T) {
	s := New()
	var at time.Duration = -1
	s.Inject(&Packet{OnArrive: func(_ *Packet, a time.Duration) { at = a }}, 5*time.Millisecond)
	s.Run()
	if at != 5*time.Millisecond {
		t.Errorf("arrival = %v, want 5ms", at)
	}
}

func TestInvalidLinkParamsPanic(t *testing.T) {
	s := New()
	for _, f := range []func(){
		func() { s.NewLink("bad", 0, 0) },
		func() { s.NewLink("bad", -1, 0) },
		func() { s.NewLink("bad", unit.Mbps, -time.Second) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid link params did not panic")
				}
			}()
			f()
		}()
	}
}

func TestQueueCompaction(t *testing.T) {
	// Run enough packets through a congested link to exercise the FIFO
	// compaction path, checking order is never disturbed.
	s := New()
	l := s.NewLink("l", 50*unit.Mbps, 0)
	next := 0
	for i := 0; i < 5000; i++ {
		i := i
		s.Inject(&Packet{
			Size:  1500,
			Seq:   i,
			Route: []*Link{l},
			OnArrive: func(p *Packet, _ time.Duration) {
				if p.Seq != next {
					t.Fatalf("order violated: got %d want %d", p.Seq, next)
				}
				next++
			},
		}, time.Duration(i)*10*time.Microsecond)
	}
	s.Run()
	if next != 5000 {
		t.Fatalf("delivered %d, want 5000", next)
	}
}
