package sim

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// A probe stream crosses a tandem of FIFO links with nothing else
// event-driven on them as one batch. Each link serves its arrivals by
// Lindley's recursion, so a packet's departure from hop h is fixed by
// its arrival there and by what the link admitted before it: its fed
// series and the stream's earlier packets. The batch therefore runs hop
// by hop, ahead of the clock. Hop h admits the stream's arrivals merged
// with its fed series, in the order the event path fires them, and
// hands each departure, plus propagation and jitter, to hop h+1:
//
//   - a fed element precedes a probe at its nanosecond: its number was
//     reserved when the series was fed, before the stream was sent;
//   - two probes that reach a hop at one nanosecond go in the order
//     their departures from the hop before fired, which is departure
//     order (FIFO), since each handed itself on as it departed;
//   - the loss draw is made at arrival and the jitter draw at
//     admission, in that merged order, as deliver and txDone make them;
//   - a capacity step at a probe's instant on the route's first link
//     applies first if it was scheduled before the stream was handed
//     off: a profile schedules each step when the one before fires, and
//     a probe's arrival there is its injection, numbered at hand-off.
//
// Admission is split from retirement. The link keeps the departures a
// batch admitted in its departure list, and fed elements it lost in a
// list of their own, so Forwarded, BytesServed, Lost, QueueLen and
// QueuedBytes still read, between events, what the event path shows.
// Only delivery needs events: one pending event per stream steps
// through the instants at which its packets arrive or are dropped,
// which keeps OnArrive and OnDrop at the event path's times and the
// clock where the event path leaves it. The same event moves the
// batch on: each hop admits the arrivals up to batchWindow past the
// clock, or past the next arrival still to be admitted when no
// delivery comes before it, so the fed elements a link holds ahead
// stay few and every event of the stream delivers a packet.
//
// On a link with a buffer bound, or a capacity schedule past the first
// link, a probe's place among the events of its nanosecond is
// observable and set by numbers the batch does not reproduce
// (DESIGN.md, "Folded links"); a stream over such a link takes the
// event path.

// batchWindow is how far past the clock a batch admits.
const batchWindow = 20 * time.Millisecond

// eagerProbes makes every InjectStream take the event path. Tests flip
// it to run the oracle.
var eagerProbes bool

// hopArrival is a batched packet reaching a link: when, and its index
// in the stream.
type hopArrival struct {
	at  time.Duration
	seq int
}

// arrivals is a queue of hopArrivals in arrival order, from head.
type arrivals struct {
	a    []hopArrival
	head int
}

// pending returns the arrivals still queued.
func (q *arrivals) pending() []hopArrival { return q.a[q.head:] }

// pop removes the first n pending arrivals, compacting as Link.pop
// does.
func (q *arrivals) pop(n int) {
	if q.head += n; q.head == len(q.a) {
		q.a, q.head = q.a[:0], 0
	} else if q.head > 64 && q.head*2 >= len(q.a) {
		q.a, q.head = q.a[:copy(q.a, q.a[q.head:])], 0
	}
}

// stream is a batched stream whose packets are still to be admitted or
// delivered: the packet its callbacks are handed, its send times, the
// arrivals each hop has still to admit, in arrival order, and its
// packets' fates in the order they resolve, from next. started is set
// once the hand-off has admitted its first window.
type stream struct {
	pkt     Packet
	sent    []time.Duration
	wait    []arrivals
	fates   []fate
	next    int
	cause   uint64
	started bool
}

// fate is where and when one packet of a batched stream resolves: the
// index of the link that dropped it, or the route's length when it is
// delivered.
type fate struct {
	at  time.Duration
	seq int32
	hop int32
}

// Seal declares that from now on nothing but the series already fed to
// the links and the streams sent with InjectStream will reach them: no
// TCP, no event-path feed, no timer that injects packets later. It is
// what lets a stream over sealed links be batched. Packets injected one
// by one may still cross the links: while one is in flight a stream
// takes the event path, and one that reaches a link where a batch has
// admitted arrivals at or past its own instant panics, since the batch
// would have had to admit it first.
func (s *Sim) Seal(links ...*Link) {
	for _, l := range links {
		l.sealed = true
	}
}

// InjectStream injects a stream of packets, one at each of the send
// times (non-decreasing, none before now): copies of proto with Seq set
// to the packet's index. OnArrive and OnDrop see each packet as Inject
// would deliver it, and the packet they are handed must not be retained.
//
// A stream is batched (see above) when every link of its route is
// sealed and has no discipline or buffer bound, only the
// first has a capacity schedule, and no event-driven packet or other
// batched stream is in flight. It then costs at most one event a packet, and the links fold.
// Any other stream injects its packets one by one.
func (s *Sim) InjectStream(proto Packet, sends []time.Duration) {
	if !s.batchable(proto.Route) {
		for i, at := range sends {
			p := s.NewPacket()
			p.Size, p.Kind, p.Flow, p.Seq, p.Route = proto.Size, proto.Kind, proto.Flow, i, proto.Route
			p.OnArrive, p.OnDrop = proto.OnArrive, proto.OnDrop
			s.Inject(p, at)
		}
		return
	}
	s.batch(proto, sends)
}

// batchable reports whether a stream over route may be batched.
func (s *Sim) batchable(route []*Link) bool {
	if eagerProbes || s.live > 0 || s.streams > 0 || len(route) == 0 {
		return false
	}
	for h, l := range route {
		if !l.sealed || l.disc != nil || l.buffer > 0 || h > 0 && l.capSteps != nil {
			return false
		}
	}
	return true
}

// batch hands the stream to the batch machinery: it admits what falls
// in the first window and schedules the stream's event.
func (s *Sim) batch(proto Packet, sends []time.Duration) {
	st := s.newStream(len(proto.Route))
	st.pkt = proto
	st.sent = append(st.sent, sends...)
	for i, at := range sends {
		if at < s.now || i > 0 && at < sends[i-1] {
			panic(fmt.Sprintf("sim: stream packet %d sent at %v, before now %v or the packet before it", i, at, s.now))
		}
		st.wait[0].a = append(st.wait[0].a, hopArrival{at, i})
	}
	// The batch's arrivals are numbered after every fed element's.
	st.cause = s.q.ReserveSeq(0)
	for _, l := range proto.Route {
		l.folds()
		l.catchUp(s.now, s.seq)
	}
	if s.resolveFn == nil {
		s.resolveFn = s.resolve
	}
	s.streams++
	s.admitStream(st, s.now+batchWindow)
	st.started = true
	s.scheduleStream(st)
}

// admitStream admits, hop by hop, every arrival of the stream up to
// until.
func (s *Sim) admitStream(st *stream, until time.Duration) {
	old := len(st.fates)
	route, size := st.pkt.Route, st.pkt.Size
	for h, l := range route {
		w := st.wait[h].pending()
		n := 0
		for n < len(w) && w[n].at <= until {
			n++
		}
		if n == 0 {
			continue
		}
		fd := l.fold
		fd.batching = true
		for _, a := range w[:n] {
			l.admitThrough(a.at)
			// An event-driven packet that reached the link since the
			// hand-off, at this arrival's instant or after it, should
			// have come after it.
			if st.started && a.at <= fd.edAt {
				panic(fmt.Sprintf("sim: a batched probe reaches link %q at %v, where a packet was delivered at %v ahead of it", l.Name, a.at, fd.edAt))
			}
			fd.ahead = a.at
			if l.loss != nil && l.loss.Lose() {
				st.fates = append(st.fates, fate{a.at, int32(a.seq), int32(h)})
				continue
			}
			var dep, jitter time.Duration
			if fd.plain {
				dep = fd.admit(a.at, size, l.Capacity)
				fd.push(departure{at: dep, arr: a.at, size: size, batched: true})
			} else {
				jitter = l.admitAt(departure{arr: a.at, size: size, batched: true}, st.cause)
				dep = fd.free
			}
			if h+1 == len(route) {
				if st.pkt.OnArrive != nil {
					st.fates = append(st.fates, fate{dep + l.PropDelay + jitter, int32(a.seq), int32(h + 1)})
				}
				continue
			}
			st.wait[h+1].a = append(st.wait[h+1].a, hopArrival{dep + l.PropDelay + jitter, a.seq})
		}
		fd.batching = false
		st.wait[h].pop(n)
		if l.jitterMax > 0 && h+1 < len(route) {
			slices.SortStableFunc(st.wait[h+1].pending(), func(a, b hopArrival) int { return cmp.Compare(a.at, b.at) })
		}
	}
	if added := st.fates[old:]; len(added) > 0 && (old > st.next && st.fates[old-1].at > added[0].at || !slices.IsSortedFunc(added, cmpFate)) {
		slices.SortStableFunc(st.fates[st.next:], cmpFate)
	}
}

// scheduleStream schedules the stream's event at its next fate, or
// frees the stream when it has none left. An arrival still to be
// admitted that comes before that fate is admitted now, with the window
// after it, so that every event of the stream delivers something.
func (s *Sim) scheduleStream(st *stream) {
	for {
		next, admit := maxTime, maxTime
		if st.next < len(st.fates) {
			next = st.fates[st.next].at
		}
		for i := range st.wait {
			if w := st.wait[i].pending(); len(w) > 0 {
				admit = min(admit, w[0].at)
			}
		}
		switch {
		case next <= admit && next < maxTime:
			s.atArg(next, s.resolveFn, st)
			return
		case next == maxTime && admit == maxTime:
			s.streams--
			s.freeStream(st)
			return
		}
		s.admitStream(st, admit+batchWindow)
	}
}

func cmpFate(a, b fate) int { return cmp.Compare(a.at, b.at) }

// admitThrough admits, ahead of the clock, every fed element that
// arrives at or before t.
func (l *Link) admitThrough(t time.Duration) {
	fd := l.fold
	for {
		f := fd.earliest()
		if f == nil || f.at > t {
			return
		}
		if fd.plain {
			fd.push(departure{at: fd.admit(f.at, f.size, l.Capacity), arr: f.at, size: f.size, fed: true})
		} else {
			l.admitFed(f)
		}
		f.seq++
		if !f.pull(f.at) {
			fd.drop(f)
		}
	}
}

// resolve is a batched stream's event: it moves the batch on, then
// delivers or drops the packets that resolve now. A callback that
// stops the simulation leaves the rest of the instant's packets to the
// next run, as their own events would be.
func (s *Sim) resolve(arg any) {
	st := arg.(*stream)
	s.tally(st.pkt.Kind)
	s.admitStream(st, s.now+batchWindow)
	p, route, size := &st.pkt, st.pkt.Route, st.pkt.Size
	for ; st.next < len(st.fates) && st.fates[st.next].at == s.now && !s.stopped; st.next++ {
		f := st.fates[st.next]
		p.Seq, p.SentAt, p.hop = int(f.seq), st.sent[f.seq], int(f.hop)
		if int(f.hop) == len(route) {
			p.OnArrive(p, s.now)
			continue
		}
		l := route[f.hop]
		l.lost++
		l.lostBytes += size
		if p.OnDrop != nil {
			p.OnDrop(p, l, s.now)
		}
	}
	s.scheduleStream(st)
}

// newStream returns a stream for a route of hops links from the
// simulation's free list, or a fresh one.
func (s *Sim) newStream(hops int) *stream {
	var st *stream
	if n := len(s.streamFree); n > 0 {
		st = s.streamFree[n-1]
		s.streamFree = s.streamFree[:n-1]
	} else {
		st = &stream{}
	}
	for len(st.wait) < hops {
		st.wait = append(st.wait, arrivals{})
	}
	st.wait = st.wait[:hops]
	return st
}

// freeStream empties a resolved stream and returns it to the free list.
func (s *Sim) freeStream(st *stream) {
	st.pkt, st.sent, st.fates, st.next, st.started = Packet{}, st.sent[:0], st.fates[:0], 0, false
	for h := range st.wait {
		st.wait[h].a, st.wait[h].head = st.wait[h].a[:0], 0
	}
	s.streamFree = append(s.streamFree, st)
}
