package sim

import (
	"fmt"
	"time"

	"abw/internal/rng"
	"abw/internal/unit"
)

// Link is a store-and-forward output link: packets queue in FIFO order,
// are transmitted one at a time at Capacity, and reach the next hop after
// PropDelay. A Link belongs to exactly one Sim.
//
// Beyond the plain FIFO tail-drop fixed-capacity model, a link can be
// given Internet-realistic behavior, each piece independently optional
// and off by default:
//
//   - a queue Discipline (SetDiscipline): RED early drops, CoDel head
//     drops — service order stays FIFO;
//   - a LossModel (SetLoss): random transmission loss at the input,
//     before queueing, counted separately from queue drops;
//   - propagation jitter (SetJitter): bounded random extra propagation
//     delay per packet, so packets can overtake in flight — bounded
//     reordering;
//   - a capacity schedule (SetCapacitySchedule): piecewise-constant
//     time-varying capacity (fading).
//
// With none of these installed the hot path is exactly the pre-existing
// zero-allocation FIFO fast path. A link with no discipline and no
// recorder folds the one-hop cross traffic fed to it (Sim.Feed,
// fold.go), whatever else it has; loss, jitter, a capacity schedule and
// a buffer bound (SetBuffer) are served by arithmetic too. Install
// every behavior before feeding a link: the setters panic on a link
// that already folds.
type Link struct {
	sim *Sim

	// Name identifies the link in diagnostics ("hop2", "tight", ...).
	Name string
	// Capacity is the transmission rate C_i. Under a capacity schedule
	// it holds the current rate and changes as the simulation runs.
	Capacity unit.Rate
	// PropDelay is the fixed propagation latency to the next hop.
	PropDelay time.Duration

	// buffer caps the queue size in bytes (SetBuffer).
	buffer unit.Bytes

	queue       []*Packet
	head        int
	queuedBytes unit.Bytes
	busy        bool
	idleSince   time.Duration // when busy last went false (0 = since creation)

	// txPkt/txStart describe the packet in service, read back by txDone
	// so the transmission-complete event needs no per-packet closure.
	txPkt   *Packet
	txStart time.Duration

	// Pluggable behavior; all nil/zero by default.
	disc       Discipline
	loss       LossModel
	jitterMax  time.Duration
	jitterRand *rng.Rand
	capSteps   []CapacityStep
	capIdx     int      // the step in force
	capSeq     []uint64 // each step's event number once scheduled

	// Statistics.
	forwarded    int64
	dropped      int64
	droppedBytes unit.Bytes
	lost         int64
	lostBytes    unit.Bytes
	bytesServed  unit.Bytes

	rec *Recorder

	// fold is non-nil once the link folds fed series (fold.go).
	fold *folder
}

// NewLink attaches a link to the simulation. Capacity must be positive.
func (s *Sim) NewLink(name string, capacity unit.Rate, propDelay time.Duration) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: link %q with non-positive capacity %v", name, capacity))
	}
	if propDelay < 0 {
		panic(fmt.Sprintf("sim: link %q with negative propagation delay %v", name, propDelay))
	}
	return &Link{sim: s, Name: name, Capacity: capacity, PropDelay: propDelay}
}

// SetBuffer caps the queue in bytes, counting queued packets but not
// the one in transmission. Zero, the default, means unbounded (the
// paper's simulations never drop probe traffic except in the TCP study).
func (l *Link) SetBuffer(b unit.Bytes) {
	l.mustNotFold("SetBuffer")
	l.buffer = b
}

// Attach associates a ground-truth recorder with the link. Pass nil to
// detach.
func (l *Link) Attach(r *Recorder) {
	l.mustNotFold("Attach")
	l.rec = r
}

// Recorder returns the attached ground-truth recorder (nil if none).
func (l *Link) Recorder() *Recorder { return l.rec }

// SetDiscipline installs a queue discipline (RED, CoDel, explicit
// FIFO); nil restores the branch-free FIFO tail-drop fast path.
func (l *Link) SetDiscipline(d Discipline) {
	l.mustNotFold("SetDiscipline")
	l.disc = d
}

// Discipline returns the installed queue discipline (nil = FIFO).
func (l *Link) Discipline() Discipline { return l.disc }

// SetLoss installs a random loss process at the link input; nil
// removes it.
func (l *Link) SetLoss(m LossModel) {
	l.mustNotFold("SetLoss")
	l.loss = m
}

// SetJitter adds independent uniform extra propagation delay in
// [0, max) to every forwarded packet, drawn from r — the bounded
// reordering model: a packet can overtake at most the packets within
// max of it. Pass max 0 to disable. It panics on a negative max or,
// for a positive max, a nil random source.
func (l *Link) SetJitter(max time.Duration, r *rng.Rand) {
	l.mustNotFold("SetJitter")
	if max < 0 {
		panic(fmt.Sprintf("sim: negative jitter bound %v", max))
	}
	if max > 0 && r == nil {
		panic("sim: jitter needs a random source")
	}
	l.jitterMax, l.jitterRand = max, r
}

// Forwarded returns the number of packets fully transmitted by the link.
func (l *Link) Forwarded() int64 {
	l.settle()
	return l.forwarded
}

// Dropped returns the number of packets dropped by the queue: buffer
// tail drops plus discipline (AQM) drops. Random-loss kills are
// counted by Lost instead.
func (l *Link) Dropped() int64 {
	l.settle()
	return l.dropped
}

// DroppedBytes returns the bytes dropped by the queue.
func (l *Link) DroppedBytes() unit.Bytes {
	l.settle()
	return l.droppedBytes
}

// Lost returns the number of packets killed by the link's loss model.
func (l *Link) Lost() int64 {
	l.settle()
	return l.lost
}

// LostBytes returns the bytes killed by the link's loss model.
func (l *Link) LostBytes() unit.Bytes {
	l.settle()
	return l.lostBytes
}

// BytesServed returns the total bytes transmitted.
func (l *Link) BytesServed() unit.Bytes {
	l.settle()
	return l.bytesServed
}

// QueueLen returns the number of packets waiting (excluding the one in
// service).
func (l *Link) QueueLen() int {
	if l.fold != nil {
		l.settle()
		return l.fold.queueLen()
	}
	return len(l.queue) - l.head
}

// QueuedBytes returns the bytes waiting in the queue.
func (l *Link) QueuedBytes() unit.Bytes {
	if l.fold != nil {
		l.settle()
		return l.fold.queuedBytes()
	}
	return l.queuedBytes
}

// deliver is the arrival of a packet at the link input.
func (l *Link) deliver(p *Packet) {
	if l.fold != nil {
		l.deliverFolded(p)
		return
	}
	now := l.sim.now
	if l.rec != nil {
		l.rec.arrival(now, p)
	}
	if l.loss != nil && l.loss.Lose() {
		l.kill(p, now)
		return
	}
	if l.disc != nil && !l.disc.Admit(l, p) {
		l.drop(p, now)
		return
	}
	if l.buffer > 0 && l.queuedBytes+p.Size > l.buffer && l.busy {
		l.drop(p, now)
		return
	}
	p.enqAt = now
	l.push(p)
	l.queuedBytes += p.Size
	if !l.busy {
		l.startTx()
	}
}

// kill disposes of a packet the loss model killed.
func (l *Link) kill(p *Packet, now time.Duration) {
	l.lost++
	l.lostBytes += p.Size
	if l.rec != nil {
		l.rec.drop(now, p)
	}
	if p.OnDrop != nil {
		p.OnDrop(p, l, now)
	}
	l.sim.releasePacket(p)
}

// drop disposes of a queue-dropped packet (tail drop or AQM drop).
func (l *Link) drop(p *Packet, now time.Duration) {
	l.dropped++
	l.droppedBytes += p.Size
	if l.rec != nil {
		l.rec.drop(now, p)
	}
	if p.OnDrop != nil {
		p.OnDrop(p, l, now)
	}
	l.sim.releasePacket(p)
}

// startTx begins transmitting the next queued packet that survives the
// discipline's dequeue check (head drops pull the following packet).
// The completion event carries only the link: txDone reads the
// in-service packet back from the link, so steady-state forwarding
// schedules no closures.
func (l *Link) startTx() {
	for l.head < len(l.queue) {
		p := l.pop()
		l.queuedBytes -= p.Size
		if l.disc != nil && !l.disc.Dequeue(l, p) {
			l.drop(p, l.sim.now)
			continue
		}
		l.busy = true
		l.txPkt = p
		l.txStart = l.sim.now
		l.sim.callbacks()
		l.sim.atArg(l.txStart+unit.TxTime(p.Size, l.Capacity), l.sim.txDoneFn, l)
		return
	}
	if l.busy {
		l.busy = false
		l.idleSince = l.sim.now
	}
}

// txDone completes the in-service packet's transmission at the current
// virtual time (the scheduled tx-end instant) and starts the next.
func (l *Link) txDone() {
	p, start := l.txPkt, l.txStart
	l.txPkt = nil
	l.forwarded++
	l.bytesServed += p.Size
	if l.rec != nil {
		l.rec.busyInterval(start, l.sim.now)
	}
	l.handOff(p, l.jitter())
	l.startTx()
}

// jitter draws a packet's extra propagation delay, in departure order
// (0 on a link without jitter).
func (l *Link) jitter() time.Duration {
	if l.jitterMax == 0 {
		return 0
	}
	return time.Duration(l.jitterRand.Float64() * float64(l.jitterMax))
}

// handOff passes a packet whose transmission ends now to the next hop
// after propagation plus its jitter draw. Propagation is pipelined: the
// link can transmit the next packet while this one is in flight — which
// is exactly what lets a jittered packet overtake. A packet leaving the
// last link of its route with no OnArrive is released here rather than
// by an advance event PropDelay later: nobody can observe that arrival,
// and dropping one Schedule leaves every other pair of events in the
// same (At, seq) order. The caller draws the jitter regardless, because
// the draw advances jitterRand for the packets that follow.
func (l *Link) handOff(p *Packet, jitter time.Duration) {
	prop := l.PropDelay + jitter
	switch {
	case prop == 0:
		p.hop++
		l.sim.forward(p)
	case p.hop+1 >= len(p.Route) && p.OnArrive == nil:
		l.sim.releasePacket(p)
	default:
		l.sim.atArg(l.sim.now+prop, l.sim.advanceFn, p)
	}
}

// push/pop implement an amortized O(1) FIFO over a slice, compacting when
// the dead prefix dominates so long simulations do not leak memory.
func (l *Link) push(p *Packet) { l.queue = append(l.queue, p) }

func (l *Link) pop() *Packet {
	p := l.queue[l.head]
	l.queue[l.head] = nil
	l.head++
	if l.head > 64 && l.head*2 >= len(l.queue) {
		n := copy(l.queue, l.queue[l.head:])
		l.queue = l.queue[:n]
		l.head = 0
	}
	return p
}
