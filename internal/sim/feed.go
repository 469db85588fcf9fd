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
	next  func(i int) (at time.Duration, size unit.Bytes, ok bool)
	route []*Link
	kind  Kind
	flow  int

	base uint64     // first reserved sequence number
	i    int        // index of the pending element
	size unit.Bytes // size of the pending element
}

// Feed injects an ordered series of pooled packets, element i being
// what next(i) returns (times non-decreasing in i; ok false ends the
// series), while keeping only one event pending. The packets fire in
// exactly the order they would if every one had been built and Injected
// right here, one after the other: the feed reserves its block of event
// sequence numbers now and schedules element i under the i-th of them,
// so on an equal-time tie a feed packet still precedes everything
// scheduled after this call and follows everything scheduled before it.
// next is first called for element 0 from inside Feed, and for element
// i+1 while element i fires.
func (s *Sim) Feed(route []*Link, kind Kind, flow int, next func(i int) (at time.Duration, size unit.Bytes, ok bool)) {
	if s.feedFn == nil { // built on first use: most simulations never feed
		s.feedFn = s.fireFeed
	}
	f := &feed{next: next, route: route, kind: kind, flow: flow, base: s.q.ReserveSeq(feedSeqBlock)}
	s.scheduleFeed(f)
}

// scheduleFeed schedules the feed's element f.i, if the series has one.
func (s *Sim) scheduleFeed(f *feed) {
	at, size, ok := f.next(f.i)
	if !ok {
		return
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	f.size = size
	s.q.ScheduleArgSeq(at, f.base+uint64(f.i), s.feedFn, f)
}

// fireFeed injects the pending element (what injectNow does for a
// packet built ahead of time) and schedules its successor.
func (s *Sim) fireFeed(arg any) {
	f := arg.(*feed)
	p := s.NewPacket()
	p.Size, p.Kind, p.Flow, p.Route = f.size, f.kind, f.flow, f.route
	p.SentAt = s.now
	s.forward(p)
	f.i++
	s.scheduleFeed(f)
}
