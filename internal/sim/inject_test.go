package sim

import (
	"testing"
	"time"

	"abw/internal/unit"
)

// arrivalLog is a FIFO discipline recording the flow of every packet
// in the order the link admitted them.
type arrivalLog struct{ flows []int }

func (*arrivalLog) Name() string                { return "arrival-log" }
func (*arrivalLog) Dequeue(*Link, *Packet) bool { return true }
func (g *arrivalLog) Admit(_ *Link, p *Packet) bool {
	g.flows = append(g.flows, p.Flow)
	return true
}

func crossPacket(s *Sim, l *Link, flow int) *Packet {
	p := s.NewPacket()
	p.Size, p.Kind, p.Flow, p.Route = 1500, KindCross, flow, []*Link{l}
	return p
}

// TestInjectThenOrder pins the three ordering rules of InjectThen on a
// link whose transmission time (120 µs) equals the source's gap, so the
// successor and the packet's txDone land on one instant.
func TestInjectThenOrder(t *testing.T) {
	const tx = 120 * time.Microsecond // 1500 B at 100 Mbps

	t.Run("successor is numbered below the txDone the forward schedules", func(t *testing.T) {
		s := New()
		l := s.NewLink("l", 100*unit.Mbps, time.Millisecond)
		seen := int64(-1)
		s.At(0, func() {
			s.InjectThen(crossPacket(s, l, 1), tx, func() { seen = l.Forwarded() })
		})
		s.RunUntil(time.Second)
		if seen != 0 {
			t.Errorf("the successor ran with %d packets forwarded, want 0: it must fire ahead of the txDone at the same instant", seen)
		}
		if st := s.Stats(); st.DirectInjects != 1 || st.TiedInjects != 0 || st.Fired != 3 {
			t.Errorf("stats %+v, want one direct injection and 3 events fired (source, successor, txDone)", st)
		}
	})

	t.Run("a zero-gap successor follows the packet and is not a tie", func(t *testing.T) {
		s := New()
		l := s.NewLink("l", 100*unit.Mbps, time.Millisecond)
		log := &arrivalLog{}
		l.SetDiscipline(log)
		s.At(0, func() {
			s.InjectThen(crossPacket(s, l, 1), 0, func() {
				s.InjectThen(crossPacket(s, l, 2), 0, nil)
			})
		})
		s.RunUntil(time.Second)
		if len(log.flows) != 2 || log.flows[0] != 1 || log.flows[1] != 2 {
			t.Errorf("arrival order %v, want [1 2]", log.flows)
		}
		if st := s.Stats(); st.DirectInjects != 2 || st.TiedInjects != 0 {
			t.Errorf("stats %+v, want two direct injections", st)
		}
	})

	t.Run("an event pending at the instant runs before the packet", func(t *testing.T) {
		s := New()
		l := s.NewLink("l", 100*unit.Mbps, time.Millisecond)
		log := &arrivalLog{}
		l.SetDiscipline(log)
		s.At(0, func() {
			s.InjectThen(crossPacket(s, l, 1), tx, nil)
		})
		s.Inject(crossPacket(s, l, 2), 0) // numbered above the source's event
		s.RunUntil(time.Second)
		if len(log.flows) != 2 || log.flows[0] != 2 || log.flows[1] != 1 {
			t.Errorf("arrival order %v, want [2 1]: the packet takes the place its Inject event would have", log.flows)
		}
		if st := s.Stats(); st.DirectInjects != 0 || st.TiedInjects != 1 {
			t.Errorf("stats %+v, want one tied injection", st)
		}
	})
}

// TestTerminalReleaseSchedulesNoAdvance: a packet leaving the last link
// of its route with nobody to tell is recycled at txDone; one with an
// OnArrive, or with hops to go, still crosses the propagation delay.
func TestTerminalReleaseSchedulesNoAdvance(t *testing.T) {
	const tx = 120 * time.Microsecond
	s := New()
	a := s.NewLink("a", 100*unit.Mbps, time.Millisecond)
	b := s.NewLink("b", 100*unit.Mbps, time.Millisecond)

	p := crossPacket(s, a, 1)
	s.Inject(p, 0)
	s.RunUntil(tx)
	if n := s.Pending(); n != 0 {
		t.Errorf("%d events pending after the txDone of an unobserved last-hop packet, want 0", n)
	}
	if st := s.Stats(); st.Fired != 2 {
		t.Errorf("%d events fired for one unobserved one-hop packet, want 2 (inject, txDone)", st.Fired)
	}
	if q := s.NewPacket(); q != p {
		t.Error("the packet was not back in the pool at txDone")
	}

	var arrived time.Duration
	p = crossPacket(s, a, 2)
	p.OnArrive = func(_ *Packet, at time.Duration) { arrived = at }
	start := s.Now()
	s.Inject(p, start)
	s.RunUntil(start + tx)
	if n := s.Pending(); n != 1 {
		t.Errorf("%d events pending after the txDone of an observed packet, want its advance", n)
	}
	s.RunUntil(start + time.Second)
	if want := start + tx + time.Millisecond; arrived != want {
		t.Errorf("observed packet arrived at %v, want %v", arrived, want)
	}

	p = crossPacket(s, a, 3)
	p.Route = []*Link{a, b}
	start = s.Now()
	fired := s.Stats().Fired
	s.Inject(p, start)
	s.RunUntil(start + time.Second)
	if b.Forwarded() != 1 {
		t.Errorf("second hop forwarded %d packets, want 1", b.Forwarded())
	}
	if n := s.Stats().Fired - fired; n != 4 {
		t.Errorf("%d events fired for an unobserved two-hop packet, want 4 (inject, txDone, advance, txDone)", n)
	}
}

// TestStatsCountPoolTraffic: the snapshot separates packets served
// from the free list from fresh ones, and scheduled events from
// allocated ones.
func TestStatsCountPoolTraffic(t *testing.T) {
	f := newForwardingLoop()
	f.step(100)
	st := f.s.Stats()
	if st.PacketsAllocated+st.PacketsReused != 100 || st.PacketsAllocated > 8 {
		t.Errorf("100 packets: %d allocated + %d reused, want a handful allocated", st.PacketsAllocated, st.PacketsReused)
	}
	if st.Scheduled != 200 || st.Fired != 200 || st.Cancelled != 0 {
		t.Errorf("scheduled %d fired %d cancelled %d, want 200 / 200 / 0 (inject + txDone per packet)", st.Scheduled, st.Fired, st.Cancelled)
	}
	if st.Allocated > 8 {
		t.Errorf("%d event structs allocated for 200 events, want a handful", st.Allocated)
	}
	h := f.s.At(f.s.Now()+time.Second, func() {})
	f.s.Cancel(h)
	if st := f.s.Stats(); st.Cancelled != 1 || st.Scheduled != 201 {
		t.Errorf("after one cancelled timer: scheduled %d cancelled %d, want 201 / 1", st.Scheduled, st.Cancelled)
	}
}
