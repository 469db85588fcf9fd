package sim

import (
	"fmt"
	"time"

	"abw/internal/unit"
)

// feedSeqBlock is the sequence-number block a feed reserves. Only the
// relative order of numbers matters, so a block far larger than any
// series is equivalent to reserving its exact (unknown) length.
const feedSeqBlock = 1 << 32

// feed is the state of one Sim.Feed series; it is also the argument of
// the single event the series keeps pending, so stepping through the
// series allocates nothing.
type feed struct {
	next  func() (at time.Duration, size unit.Bytes, ok bool)
	route []*Link
	kind  Kind
	flow  int

	seq  uint64     // the pending element's number, from the reserved block
	size unit.Bytes // size of the pending element
}

// Feed injects an ordered series of pooled packets, each element being
// what next returns (times non-decreasing; ok false ends the series),
// while keeping only one event pending. It is how open-loop cross
// traffic enters a link. Feed reserves a block of event sequence
// numbers now and schedules the series' k-th element under the k-th of
// them, which fixes the tie rule when Feed is called: at an equal
// instant a fed packet fires after every event scheduled before this
// call and before every event scheduled after it, and the packets of
// two feeds fire in the order the feeds were started. next is first
// called from inside Feed, then once for each element while its
// predecessor fires.
func (s *Sim) Feed(route []*Link, kind Kind, flow int, next func() (at time.Duration, size unit.Bytes, ok bool)) {
	if s.feedFn == nil { // built on first use: most simulations never feed
		s.feedFn = s.fireFeed
	}
	f := &feed{next: next, route: route, kind: kind, flow: flow, seq: s.q.ReserveSeq(feedSeqBlock)}
	s.scheduleFeed(f)
}

// scheduleFeed schedules the feed's next element, if the series has one.
func (s *Sim) scheduleFeed(f *feed) {
	at, size, ok := f.next()
	if !ok {
		return
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	f.size = size
	s.q.ScheduleArgSeq(at, f.seq, s.feedFn, f)
}

// fireFeed injects the pending element (what injectNow does for a
// packet built ahead of time) and schedules its successor.
func (s *Sim) fireFeed(arg any) {
	f := arg.(*feed)
	p := s.NewPacket()
	p.Size, p.Kind, p.Flow, p.Route = f.size, f.kind, f.flow, f.route
	p.SentAt = s.now
	s.forward(p)
	f.seq++
	s.scheduleFeed(f)
}
