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

// eagerFeeds makes every Feed take the event path, folding links
// included. Tests flip it to run the eager oracle.
var eagerFeeds bool

// feed is the state of one Sim.Feed series; on the event path it is
// also the argument of the single event the series keeps pending, so
// stepping through the series allocates nothing.
type feed struct {
	next  func() (at time.Duration, size unit.Bytes, ok bool)
	route []*Link
	kind  Kind
	flow  int

	seq  uint64        // the pending element's number, from the reserved block
	at   time.Duration // time of the pending element
	size unit.Bytes    // size of the pending element
}

// Feed injects an ordered series of pooled packets, each element being
// what next returns (times non-decreasing; ok false ends the series),
// while keeping at most one element pending. It is how open-loop cross
// traffic enters a link. Feed reserves a block of event sequence
// numbers now and gives the series' k-th element the k-th of them,
// which fixes the tie rule when Feed is called: at an equal instant a
// fed packet arrives after every event scheduled before this call and
// before every event scheduled after it, and the packets of two feeds
// arrive in the order the feeds were started. next is first called
// from inside Feed, then once for each element as its predecessor
// arrives.
//
// A series of KindCross packets on a one-hop route whose link has no
// discipline and nothing in transmission is folded,
// whatever loss model, jitter, capacity schedule or buffer bound the
// link has: the link serves it by arithmetic, in the same order, and it
// schedules no events at all (see fold.go). Every other series
// schedules one event per element, and the links of its route are no
// longer sealed (Seal).
func (s *Sim) Feed(route []*Link, kind Kind, flow int, next func() (at time.Duration, size unit.Bytes, ok bool)) {
	f := &feed{next: next, route: route, kind: kind, flow: flow, seq: s.q.ReserveSeq(feedSeqBlock)}
	if len(route) == 1 && kind == KindCross && route[0].canFold() && !eagerFeeds {
		route[0].foldFeed(f)
		return
	}
	for _, l := range route {
		l.sealed = false // its events can reach the link at any time
	}
	if s.feedFn == nil { // built on first use: most simulations never feed eagerly
		s.feedFn = s.fireFeed
	}
	s.scheduleFeed(f)
}

// pull loads the series' first or next element, reporting false when
// the series has ended.
func (f *feed) pull(notBefore time.Duration) bool {
	at, size, ok := f.next()
	if !ok {
		return false
	}
	if at < notBefore {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, notBefore))
	}
	f.at, f.size = at, size
	return true
}

// scheduleFeed schedules the feed's next element, if the series has one.
func (s *Sim) scheduleFeed(f *feed) {
	if f.pull(s.now) {
		s.q.ScheduleArgSeq(f.at, f.seq, s.feedFn, f)
	}
}

// fireFeed injects the pending element (what injectNow does for a
// packet built ahead of time) and schedules its successor.
func (s *Sim) fireFeed(arg any) {
	f := arg.(*feed)
	s.tally(f.kind)
	p := s.NewPacket()
	p.Size, p.Kind, p.Flow, p.Route = f.size, f.kind, f.flow, f.route
	p.SentAt, p.live = s.now, true
	s.live++
	s.forward(p)
	f.seq++
	s.scheduleFeed(f)
}
