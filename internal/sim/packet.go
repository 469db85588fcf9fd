package sim

import (
	"time"

	"abw/internal/unit"
)

// Kind classifies packets so the simulator can tell probe traffic from
// the cross traffic whose avail-bw is being estimated: only KindCross
// series fold, and Stats counts each kind's events apart.
type Kind uint8

// Packet kinds.
const (
	KindCross Kind = iota // background cross traffic
	KindProbe             // measurement probe packets
	KindData              // TCP data segments
	KindAck               // TCP acknowledgments
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case KindCross:
		return "cross"
	case KindProbe:
		return "probe"
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	default:
		return "unknown"
	}
}

// Packet is one simulated packet. Packets are routed hop-by-hop through
// Route; when the last hop's transmission (plus propagation) completes,
// OnArrive fires with the delivery time.
type Packet struct {
	Size unit.Bytes
	Kind Kind

	// Flow and Seq identify the packet within its sender's stream; the
	// probing receiver uses them to reconstruct one-way delays, and TCP
	// uses them for its sequence space.
	Flow int
	Seq  int

	// SentAt is stamped by Inject with the injection time.
	SentAt time.Duration

	// Route is the packet's whole route, first link to last; hop indexes
	// the link the packet enters next.
	Route []*Link
	hop   int

	// OnArrive, if non-nil, is called at final delivery.
	OnArrive func(p *Packet, at time.Duration)

	// OnDrop, if non-nil, is called when any link on the route discards
	// the packet: a full buffer, an AQM drop at enqueue or dequeue, or a
	// loss-model kill (TCP relies on this only for counters; loss
	// detection is end-to-end).
	OnDrop func(p *Packet, l *Link, at time.Duration)

	// enqAt is stamped by each link when the packet joins its queue;
	// CoDel reads it at dequeue time as the packet's sojourn time.
	enqAt time.Duration

	// pooled marks packets obtained from Sim.NewPacket: they return to
	// the simulation's free list after their final OnArrive/OnDrop.
	pooled bool
	// live marks a packet counted in Sim.live, from Inject or an
	// event-path feed until it is delivered or dropped.
	live bool
}

// Inject introduces the packet into the simulation at time at, delivering
// it to the first link of its route (or straight to OnArrive for an empty
// route, which models a zero-length path). The injection event is
// allocation-free: it reuses a pooled event with the simulation's
// long-lived injection callback.
func (s *Sim) Inject(p *Packet, at time.Duration) {
	s.callbacks()
	s.atArg(at, s.injectFn, p)
	if !p.live {
		p.live = true
		s.live++
	}
}

// forward moves the packet into the next element of its route. Packets
// from NewPacket are recycled once the final OnArrive returns.
func (s *Sim) forward(p *Packet) {
	if p.hop < len(p.Route) {
		p.Route[p.hop].deliver(p)
		return
	}
	if p.OnArrive != nil {
		p.OnArrive(p, s.now)
	}
	s.releasePacket(p)
}
