// Package sim implements the discrete-event packet network simulator that
// every experiment in the reproduction runs on: store-and-forward links
// with finite FIFO buffers, propagation delays, per-link ground-truth
// recorders, and a deterministic virtual clock with nanosecond
// resolution.
//
// The model matches the paper's setting exactly: a path is a sequence of
// store-and-forward links (Section 1, "Definitions"); cross traffic
// enters and leaves at arbitrary hops; probing packets traverse the whole
// path; the avail-bw of link i over (t, t+τ) is C_i·(1 − u_i(t, t+τ))
// where u is the fraction of time the link's transmitter is busy
// (Equations 1–2).
//
// The scheduling and forwarding hot path is allocation-free in steady
// state: events live in the queue's free list, packets obtained with
// NewPacket live in a per-Sim free list and are recycled after their
// final OnArrive/OnDrop, and the per-packet transmission/propagation
// callbacks are long-lived argument-taking functions rather than fresh
// closures.
//
// One-hop open-loop cross traffic costs no events at all on a link
// without a queue discipline or a recorder, lossy, jittered, fading and
// buffered links included. Such a link folds its fed series through
// Lindley's recursion (departure = max(arrival, previous departure) +
// L/C) whenever something can observe it — an event-driven packet
// arriving, an accessor read, the end of a run — in the order the
// events would have fired (fold.go).
package sim

import (
	"fmt"
	"math"
	"time"

	"abw/internal/eventq"
)

// Sim is a single-threaded discrete-event simulation. The zero value is
// ready to use; time starts at 0.
type Sim struct {
	q   eventq.Queue
	now time.Duration
	// seq places the clock within its instant: every event and fed
	// arrival at now numbered below seq has happened. It is the firing
	// event's number during an event, and the queue's next number after
	// a run that reached its end time.
	seq uint64
	// done is the key of the folded completion departFolded last fired;
	// while it is firing, done.num equals seq (fold.go).
	done    key
	stopped bool

	pktFree []*Packet
	noPool  bool
	stats   Stats

	// folding lists the links that fold fed series, for the end-of-run
	// catch-up; log is the firing log of fold.go, kept while one of
	// them is not plain.
	folding []*Link
	log     []fired
	logGen  uint64

	// Long-lived callbacks for the packet hot path, built once so
	// scheduling them never allocates a closure.
	injectFn  func(any)
	advanceFn func(any)
	txDoneFn  func(any)
	feedFn    func(any)
}

// New returns an empty simulation.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// At schedules fn at absolute virtual time t. Scheduling strictly in the
// past panics: it would silently reorder causality.
func (s *Sim) At(t time.Duration, fn func()) eventq.Handle {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	return s.q.Schedule(t, fn)
}

// atArg is At for the closure-free hot path: fn is one of the Sim's
// long-lived callbacks, arg the packet or link it applies to.
func (s *Sim) atArg(t time.Duration, fn func(any), arg any) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.q.ScheduleArg(t, fn, arg)
}

// After schedules fn d after the current time.
func (s *Sim) After(d time.Duration, fn func()) eventq.Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// Cancel cancels a pending event. Stale handles (fired, canceled, or
// recycled events) are no-ops.
func (s *Sim) Cancel(h eventq.Handle) { s.q.Cancel(h) }

// Stop makes Run/RunUntil return after the currently executing event.
// Called before Run/RunUntil, it sticks: the next run returns
// immediately without executing anything, then the stop is consumed.
func (s *Sim) Stop() { s.stopped = true }

// fire runs one popped event with the clock at its place.
func (s *Sim) fire(e *eventq.Event) {
	s.now, s.seq = e.At, e.Seq()
	if s.log != nil {
		s.logFire(e.At, e.Seq())
	}
	e.Call()
	s.q.Release(e)
}

// Run executes events until the queue drains or Stop is called. A run
// that drains serves every folded series to its end, and the clock
// ends at the last departure or fed arrival, as it would at the last
// transmission or feed event.
func (s *Sim) Run() {
	if s.stopped {
		s.stopped = false
		return
	}
	for !s.stopped {
		e := s.q.Pop()
		if e == nil {
			s.foldAll(maxTime, math.MaxUint64)
			for _, l := range s.folding {
				s.now = max(s.now, l.fold.free, l.fold.end)
			}
			s.seq = s.q.ReserveSeq(0)
			s.resetLog(s.now, s.seq)
			return
		}
		s.fire(e)
	}
	s.stopped = false
	s.foldAll(s.now, s.seq)
	s.resetLog(s.now, s.seq)
}

// RunUntil executes events with timestamps <= t, then sets the clock to
// t. Events scheduled beyond t stay pending, so simulations can be
// advanced in measured slices. A Stop leaves the clock at the stopping
// event's time, since events after it may still be pending; a Stop
// already pending makes it return immediately, clock untouched.
//
// The loop uses the queue's bounded PopUntil rather than Peek-then-Pop:
// a Peek would advance the queue's cursor to the next pending event
// even when that event (a retransmit timer, a capacity step) lies
// far past t, and the queue refuses events behind its cursor, so
// nothing could then be scheduled in (t, event).
func (s *Sim) RunUntil(t time.Duration) {
	if s.stopped {
		s.stopped = false
		return
	}
	for !s.stopped {
		e := s.q.PopUntil(t)
		if e == nil {
			if t >= s.now {
				s.now, s.seq = t, s.q.ReserveSeq(0)
			}
			break
		}
		s.fire(e)
	}
	s.stopped = false
	s.foldAll(s.now, s.seq)
	s.resetLog(s.now, s.seq)
}

// Pending returns the number of queued events, for tests and leak checks.
func (s *Sim) Pending() int { return s.q.Len() }

// Stats counts a simulation's work since it was created: the event
// queue's counters, NewPacket calls that allocated or were served from
// the free list, and fed cross-traffic packets a folding link has
// transmitted by arithmetic, with no event and no Packet.
type Stats struct {
	eventq.Stats
	PacketsAllocated, PacketsReused uint64
	Folded                          uint64
}

// Stats returns a snapshot of the simulation's counters.
func (s *Sim) Stats() Stats {
	st := s.stats
	st.Stats = s.q.Stats()
	return st
}

// callbacks lazily builds the hot-path method-value callbacks, keeping
// the zero Sim usable.
func (s *Sim) callbacks() {
	if s.injectFn == nil {
		s.injectFn = s.injectNow
		s.advanceFn = s.advancePacket
		s.txDoneFn = txDoneLink
	}
}

func (s *Sim) injectNow(arg any) {
	p := arg.(*Packet)
	p.SentAt = s.now
	p.hop = 0
	s.forward(p)
}

func (s *Sim) advancePacket(arg any) {
	p := arg.(*Packet)
	p.hop++
	s.forward(p)
}

func txDoneLink(arg any) { arg.(*Link).txDone() }

// NewPacket returns a packet from the simulation's free list (or a
// fresh one), zeroed and marked for recycling: after its final
// OnArrive or OnDrop callback returns, the packet goes back to the pool
// and must not be retained. Callers that keep packets alive past
// delivery (e.g. protocol state machines) should allocate plain
// &Packet{} values instead.
func (s *Sim) NewPacket() *Packet {
	if n := len(s.pktFree); n > 0 && !s.noPool {
		p := s.pktFree[n-1]
		s.pktFree[n-1] = nil
		s.pktFree = s.pktFree[:n-1]
		*p = Packet{pooled: true}
		s.stats.PacketsReused++
		return p
	}
	s.stats.PacketsAllocated++
	return &Packet{pooled: !s.noPool}
}

// releasePacket returns a pooled packet after its last callback. Plain
// packets (not from NewPacket) pass through untouched.
func (s *Sim) releasePacket(p *Packet) {
	if !p.pooled || s.noPool {
		return
	}
	p.pooled = false // guards against double release
	s.pktFree = append(s.pktFree, p)
}
