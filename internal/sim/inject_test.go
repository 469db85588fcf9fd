package sim

import (
	"fmt"
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

// TestFeedTieRule pins the two sentences of Feed's tie rule on one
// instant: a fed packet follows every event scheduled before its Feed
// call, precedes every event scheduled after it — including one
// scheduled while an earlier packet of the same feed fires — and the
// packets of two feeds keep the order the feeds were started.
func TestFeedTieRule(t *testing.T) {
	s := New()
	l := s.NewLink("l", 100*unit.Mbps, time.Millisecond)
	log := &arrivalLog{}
	l.SetDiscipline(log)
	const at = time.Millisecond
	// series emits n packets of flow at the instant. Feed 2 pulls its
	// last packet while its first fires, and that pull injects a flow-9
	// packet at the same instant: scheduled after both Feed calls, it
	// goes last.
	series := func(flow, n int) func() (time.Duration, unit.Bytes, bool) {
		return func() (time.Duration, unit.Bytes, bool) {
			if n == 0 {
				return 0, 0, false
			}
			if n--; n == 0 && flow == 2 {
				s.Inject(crossPacket(s, l, 9), at)
			}
			return at, 1500, true
		}
	}
	s.Inject(crossPacket(s, l, 1), at)
	s.Feed([]*Link{l}, KindCross, 2, series(2, 2))
	s.Feed([]*Link{l}, KindCross, 3, series(3, 2))
	s.Inject(crossPacket(s, l, 4), at)
	s.RunUntil(time.Second)
	if got, want := fmt.Sprint(log.flows), "[1 2 2 3 3 4 9]"; got != want {
		t.Errorf("arrival order %s, want %s", got, want)
	}
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
