// Package eventq implements the event queue driving the discrete-event
// simulator: a hierarchical timing wheel of timestamped callbacks with
// a stable tie-break, so two events scheduled for the same instant
// always fire in scheduling order. Determinism of the whole simulation
// rests on this property.
//
// The wheel quantizes virtual time into ticks of 2^tickShift
// nanoseconds and keeps wheelLevels levels of wheelSize buckets each.
// Level 0 buckets hold one tick; each higher level's buckets hold
// wheelSize times the span below, so the wheel covers
// wheelSize^wheelLevels ticks (~17 s at the current geometry) ahead of
// the cursor. Events beyond that horizon wait in a sorted spill slice
// and are swept into the wheel when the cursor reaches their epoch.
// Scheduling is O(1) bucket placement; Pop advances a cursor using
// per-level occupancy bitmaps and cascades higher-level buckets down,
// for amortized O(1) per event regardless of queue depth — the reason
// this replaced the binary heap, which survives only in heap_test.go as
// the differential tests' oracle and is compiled into no binary.
//
// Events sharing the cursor's tick live in a run slice kept sorted by
// (At, seq), which restores the sub-tick ordering the bucket
// quantization discards. Together the zones preserve the heap's exact
// pop order: globally ascending (At, seq). The cursor only moves
// forward, and an event may not be scheduled on a tick behind it.
//
// The queue owns a free list of Event structs so steady-state
// scheduling allocates nothing: popped and canceled events are returned
// to the pool with Release and handed out again by the next Schedule.
// Callers therefore never hold a bare *Event across a firing — Schedule
// returns a Handle, a value type carrying the scheduling sequence
// number, so a stale Handle (its event already fired, was canceled, or
// was recycled into a different event) cancels nothing.
package eventq

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Wheel geometry. One tick is 2^tickShift ns (~1 µs — finer than the
// sub-ms transmission times the simulator schedules at, coarse enough
// that a fully-loaded link advances the cursor every few events).
const (
	tickShift   = 10
	wheelBits   = 6
	wheelSize   = 1 << wheelBits
	wheelMask   = wheelSize - 1
	wheelLevels = 4
	// epochShift is the total tick-space covered by the wheel; events
	// whose tick differs from the cursor above this many bits spill.
	epochShift = wheelLevels * wheelBits
)

// Event is a callback scheduled to run at a virtual time. Events are
// owned by their Queue: after Pop the caller runs the event and gives
// the struct back with Release, which recycles it for a future
// Schedule. Hold a Handle, not an *Event.
type Event struct {
	At time.Duration // virtual time since simulation epoch

	fn  func(any)
	arg any

	// next/prev link the event into its wheel bucket (intrusive
	// doubly-linked list: zero-alloc insertion, O(1) cancel removal).
	next, prev *Event

	seq      uint64 // insertion order, breaks ties deterministically
	where    int32  // zone the event currently occupies (see below)
	canceled bool
}

// Zone codes for Event.where. Zero is the never-scheduled zero value;
// anything >= zoneRun means "still queued". Wheel buckets encode their
// level and index so Cancel can unlink in O(1). Code 3 belongs to the
// test-only oracle heap (heap_test.go).
const (
	idxFreed  = -2 // returned to the free list
	idxPopped = -1 // removed by Pop, possibly running
	idxLimbo  = 0  // freshly allocated, not yet scheduled
	zoneRun   = 1  // run slice: events at the cursor's tick
	zoneSpill = 2  // spill slice: beyond the wheel horizon
	zoneWheel = 4  // + lvl*wheelSize + bucket
)

func wheelZone(lvl, b int) int32 { return zoneWheel + int32(lvl)<<wheelBits + int32(b) }
func zoneLevel(where int32) int  { return int(where-zoneWheel) >> wheelBits }
func zoneBucket(where int32) int { return int(where-zoneWheel) & wheelMask }

// Seq returns the event's sequence number: among events at the same
// At, it fires after every smaller number and before every larger one
// (see less). The simulator reads it off a popped event to know where in
// that order it stands.
func (e *Event) Seq() uint64 { return e.seq }

// Call invokes the event's callback.
func (e *Event) Call() {
	if e.fn != nil {
		e.fn(e.arg)
	}
}

// callFunc is the callback Schedule files a func() under. A func value
// is pointer-shaped, so boxing it as the argument allocates nothing.
func callFunc(arg any) {
	if fn := arg.(func()); fn != nil {
		fn()
	}
}

// less is the global pop order: ascending time, then ascending sequence
// number. Schedule and ScheduleArg draw the number from the queue's
// counter, so for them the tie-break is insertion order. ReserveSeq sets
// a block of numbers aside at the counter's current position and
// ScheduleArgSeq schedules under one of them later: such an event ties
// exactly as if it had been inserted when the block was reserved — after
// everything scheduled before the reservation, before everything
// scheduled after it, and in number order within the block. Every zone
// orders by less (buckets are re-sorted when they load), so a number
// that arrives out of insertion order costs nothing extra. Numbers
// identify events to Handles, so the block's owner must use each one at
// most once.
func less(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// tickOf quantizes a virtual time to its wheel tick. The arithmetic
// shift rounds toward negative infinity, so negative times sort before
// tick zero instead of wrapping.
func tickOf(at time.Duration) int64 { return int64(at) >> tickShift }

// Handle identifies one scheduled event for cancellation. The zero
// Handle is valid and refers to nothing. Because the Handle carries the
// event's scheduling sequence number, it stays safe after the event
// fires and its struct is recycled: Cancel and Pending treat a recycled
// event as gone.
type Handle struct {
	e   *Event
	seq uint64
}

// Pending reports whether the handled event is still queued (not yet
// fired, canceled, or recycled).
func (h Handle) Pending() bool {
	return h.e != nil && h.e.seq == h.seq && h.e.where >= zoneRun && !h.e.canceled
}

// Canceled reports whether the handled event was removed before firing.
// Once the event struct has been recycled into a new event the answer
// degrades to false, matching Pending.
func (h Handle) Canceled() bool {
	return h.e != nil && h.e.seq == h.seq && h.e.canceled
}

// Queue is a hierarchical timing wheel of events popped in (At,
// insertion order). The zero value is an empty queue ready to use.
type Queue struct {
	n      int // live (pending, uncanceled) events
	seq    uint64
	free   []*Event
	noPool bool

	curTick int64
	// run holds the cursor tick's events sorted by (At, seq); entries
	// before runPos have been popped. The slice is reused across ticks.
	run    []*Event
	runPos int
	// spill holds the events beyond the wheel's epoch, sorted descending
	// by (At, seq) so the earliest sits at the end. What lands here is
	// sparse — capacity steps laid down well ahead, an event-fed series'
	// element after a long gap, and the TCP timers, probe streams and
	// in-flight packets that straddle an epoch edge — so an O(n) sorted
	// insert is cheap. Canceled entries stay in place and are reaped when
	// they reach the end or their epoch's refill.
	spill []*Event

	wheel [wheelLevels][wheelSize]*Event // bucket list heads
	occ   [wheelLevels]uint64            // per-level occupancy bitmaps

	stats Stats
}

// Stats counts a queue's work since it was created: events scheduled
// (under fresh or reserved numbers), handed out by Pop or PopUntil, and
// removed by Cancel, and Event structs allocated — the rest of
// Scheduled came from the free list.
type Stats struct{ Scheduled, Fired, Cancelled, Allocated uint64 }

// Stats returns the queue's counters.
func (q *Queue) Stats() Stats { return q.stats }

// SetPooling toggles free-list reuse (on by default). Disabling it
// makes every Schedule allocate a fresh Event — behaviorally identical,
// just slower — which is how the pooling property tests get their
// reference run.
func (q *Queue) SetPooling(on bool) { q.noPool = !on }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.n }

func (q *Queue) alloc() *Event {
	if n := len(q.free); n > 0 && !q.noPool {
		e := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return e
	}
	q.stats.Allocated++
	return &Event{}
}

// Schedule adds fn to run at virtual time at and returns a handle,
// which can later be passed to Cancel. at must not lie on a tick behind
// the cursor (see Peek and PopUntil for where they leave it); the
// cursor's own tick is allowed, and fires in (At, seq) order with the
// rest of it.
func (q *Queue) Schedule(at time.Duration, fn func()) Handle {
	return q.ScheduleArg(at, callFunc, fn)
}

// ScheduleArg adds fn(arg) to run at virtual time at. Because fn can be
// a long-lived callback and arg a pooled object, this form schedules
// without allocating a closure — the simulator's packet hot path runs
// entirely on it.
func (q *Queue) ScheduleArg(at time.Duration, fn func(any), arg any) Handle {
	seq := q.seq
	q.seq++
	return q.ScheduleArgSeq(at, seq, fn, arg)
}

// ReserveSeq sets aside n consecutive sequence numbers at the current
// point of the insertion order and returns the first. Only the relative
// order of numbers matters, so a caller that does not know its count may
// reserve a generous block.
func (q *Queue) ReserveSeq(n uint64) uint64 {
	base := q.seq
	q.seq += n
	return base
}

// ScheduleArgSeq is ScheduleArg under a sequence number from a block
// the caller reserved with ReserveSeq (see less for the ordering this
// buys). It is how a lazy source keeps one event pending and still
// fires in the order of an eager one that scheduled everything at once.
func (q *Queue) ScheduleArgSeq(at time.Duration, seq uint64, fn func(any), arg any) Handle {
	e := q.alloc()
	e.At, e.seq, e.fn, e.arg, e.canceled = at, seq, fn, arg, false
	q.place(e)
	q.n++
	q.stats.Scheduled++
	return Handle{e: e, seq: seq}
}

// place files an event into the zone its tick calls for. An event goes
// to the shallowest wheel level whose bucket span still separates it
// from the cursor — equivalently, the first level where its tick and
// the cursor agree on all higher-order bits.
func (q *Queue) place(e *Event) {
	t, c := tickOf(e.At), q.curTick
	switch {
	case t == c:
		q.insertRun(e)
	case t < c:
		panic(fmt.Sprintf("eventq: scheduling at %v, behind the cursor's tick at %v", e.At, time.Duration(c<<tickShift)))
	case t>>wheelBits == c>>wheelBits:
		q.bucketPush(0, int(t&wheelMask), e)
	case t>>(2*wheelBits) == c>>(2*wheelBits):
		q.bucketPush(1, int(t>>wheelBits&wheelMask), e)
	case t>>(3*wheelBits) == c>>(3*wheelBits):
		q.bucketPush(2, int(t>>(2*wheelBits)&wheelMask), e)
	case t>>epochShift == c>>epochShift:
		q.bucketPush(3, int(t>>(3*wheelBits)&wheelMask), e)
	default:
		q.insertSorted(e)
	}
}

// insertRun binary-inserts into the pending tail of the run slice, so
// same-tick events scheduled mid-drain still fire in (At, seq) order.
func (q *Queue) insertRun(e *Event) {
	if q.runPos == len(q.run) {
		q.run = q.run[:0]
		q.runPos = 0
	}
	e.where = zoneRun
	lo, hi := q.runPos, len(q.run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(e, q.run[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	q.run = append(q.run, nil)
	copy(q.run[lo+1:], q.run[lo:])
	q.run[lo] = e
}

// insertSorted binary-inserts into the descending (At, seq) spill
// slice, whose earliest event sits at the end.
func (q *Queue) insertSorted(e *Event) {
	e.where = zoneSpill
	s := q.spill
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(e, s[mid]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s = append(s, nil)
	copy(s[lo+1:], s[lo:])
	s[lo] = e
	q.spill = s
}

// spillPop removes the spill slice's earliest entry, reaping it and
// returning nil if it was canceled.
func (q *Queue) spillPop() *Event {
	n := len(q.spill) - 1
	e := q.spill[n]
	q.spill[n] = nil
	q.spill = q.spill[:n]
	if e.canceled {
		q.reap(e)
		return nil
	}
	return e
}

func (q *Queue) bucketPush(lvl, b int, e *Event) {
	e.where = wheelZone(lvl, b)
	head := q.wheel[lvl][b]
	e.prev = nil
	e.next = head
	if head != nil {
		head.prev = e
	}
	q.wheel[lvl][b] = e
	q.occ[lvl] |= 1 << uint(b)
}

func (q *Queue) bucketRemove(e *Event) {
	lvl, b := zoneLevel(e.where), zoneBucket(e.where)
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		q.wheel[lvl][b] = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.next, e.prev = nil, nil
	if q.wheel[lvl][b] == nil {
		q.occ[lvl] &^= 1 << uint(b)
	}
}

// reap releases a canceled event once it leaves its zone.
func (q *Queue) reap(e *Event) {
	e.where = idxPopped
	q.Release(e)
}

// maxTick is the advance limit meaning "unbounded" (Pop, Peek).
const maxTick = int64(math.MaxInt64)

// front returns the earliest live event without removing it, advancing
// the cursor (and cascading buckets) as needed, or nil when none is
// left. The cursor never advances past limit (a tick): with a finite
// limit, front may leave far-future events untouched and return nil —
// or an event beyond the caller's deadline, which the caller filters by
// At. Every wheel and spill event has tick > curTick and every run
// event tick == curTick, so the run slice's head is the earliest event.
func (q *Queue) front(limit int64) *Event {
	for {
		for ; q.runPos < len(q.run); q.runPos++ {
			e := q.run[q.runPos]
			if !e.canceled {
				return e
			}
			q.reap(e)
		}
		if !q.advance(limit) {
			return nil
		}
	}
}

// advance moves the cursor to the next occupied tick: scan level 0's
// occupancy bitmap for a bucket ahead of the cursor, else cascade the
// next occupied higher-level bucket down (re-placing its events, which
// lands the bucket-start ones in run), else jump to the spill slice's
// earliest epoch and pull that whole epoch into the wheel. Reports
// whether any live event became available.
//
// The cursor stops at limit when the next occupied tick lies beyond it.
// This is what keeps PopUntil-driven simulations fast and legal: the
// cursor tracks the caller's clock instead of leaping to a far-future
// timer, so the caller can still schedule anywhere from its clock on.
// Stopping at limit is safe exactly because the scans just proved no
// event occupies (curTick, limit] — except that the cursor must not
// enter the epoch of a still-spilled event (wheel placements ahead of
// the cursor must outrank every spill entry), so the spill stop clamps
// to just before the earliest live spill entry's epoch.
func (q *Queue) advance(limit int64) bool {
	q.run = q.run[:0]
	q.runPos = 0
	for {
		if q.runPos < len(q.run) {
			return true
		}
		// Level 0: jump straight to the next occupied tick in window.
		if idx := int(q.curTick & wheelMask); idx < wheelMask {
			if m := q.occ[0] &^ (1<<uint(idx+1) - 1); m != 0 {
				b := bits.TrailingZeros64(m)
				tk := q.curTick&^wheelMask | int64(b)
				if tk > limit {
					q.stopAt(limit)
					return false
				}
				q.curTick = tk
				q.loadRun(b)
				continue
			}
		}
		// Higher levels: cascade the next occupied bucket down one
		// level, cursor set to the bucket's first tick.
		cascaded := false
		for lvl := 1; lvl < wheelLevels; lvl++ {
			shift := uint(lvl * wheelBits)
			idx := int(q.curTick >> shift & wheelMask)
			if idx == wheelMask {
				continue
			}
			m := q.occ[lvl] &^ (1<<uint(idx+1) - 1)
			if m == 0 {
				continue
			}
			b := bits.TrailingZeros64(m)
			span := int64(1) << (shift + wheelBits)
			start := q.curTick&^(span-1) | int64(b)<<shift
			if start > limit {
				q.stopAt(limit)
				return false
			}
			q.curTick = start
			q.cascade(lvl, b)
			cascaded = true
			break
		}
		if cascaded {
			continue
		}
		// Spill: the wheel is empty out to its horizon. Reap canceled
		// entries off the end, jump to the earliest live one and refill
		// its top-level epoch.
		for len(q.spill) > 0 && q.spill[len(q.spill)-1].canceled {
			q.spillPop()
		}
		if len(q.spill) == 0 {
			q.stopAt(limit)
			return false
		}
		earliest := tickOf(q.spill[len(q.spill)-1].At)
		if earliest > limit {
			// The wheel is empty, so the cursor may cross epochs —
			// but not into the earliest spill's epoch, which must stay
			// strictly ahead of the cursor's wheel range.
			stop := limit
			if es := earliest >> epochShift << epochShift; es <= limit {
				stop = es - 1
			}
			q.stopAt(stop)
			return false
		}
		q.curTick = earliest
		epoch := q.curTick >> epochShift
		for len(q.spill) > 0 && tickOf(q.spill[len(q.spill)-1].At)>>epochShift == epoch {
			if e := q.spillPop(); e != nil {
				q.place(e)
			}
		}
	}
}

// stopAt parks the cursor at tick t after a scan proved no live event
// occupies (curTick, t]. Unbounded advances (t == maxTick) and backward
// moves are no-ops.
func (q *Queue) stopAt(t int64) {
	if t != maxTick && t > q.curTick {
		q.curTick = t
	}
}

// loadRun empties level-0 bucket b into the run slice and sorts it.
// Bucket lists are LIFO, so the collected slice is reversed back to
// insertion order first, leaving the insertion sort near-linear (it
// only has to fix At-order inversions from cascading).
func (q *Queue) loadRun(b int) {
	for e := q.wheel[0][b]; e != nil; {
		next := e.next
		e.next, e.prev = nil, nil
		e.where = zoneRun
		q.run = append(q.run, e)
		e = next
	}
	q.wheel[0][b] = nil
	q.occ[0] &^= 1 << uint(b)
	for i, j := 0, len(q.run)-1; i < j; i, j = i+1, j-1 {
		q.run[i], q.run[j] = q.run[j], q.run[i]
	}
	for i := 1; i < len(q.run); i++ {
		e := q.run[i]
		j := i - 1
		for j >= 0 && less(e, q.run[j]) {
			q.run[j+1] = q.run[j]
			j--
		}
		q.run[j+1] = e
	}
}

// cascade re-places every event of bucket (lvl, b) now that the cursor
// has entered the bucket's span. Events land one or more levels lower —
// or in run, when they sit on the bucket's first tick.
func (q *Queue) cascade(lvl, b int) {
	e := q.wheel[lvl][b]
	q.wheel[lvl][b] = nil
	q.occ[lvl] &^= 1 << uint(b)
	for e != nil {
		next := e.next
		e.next, e.prev = nil, nil
		q.place(e)
		e = next
	}
}

// Cancel removes a pending event. Canceling an already-fired,
// already-canceled, or recycled handle is a no-op, so callers can
// cancel timers unconditionally. Wheel-bucket events unlink (and
// recycle) in O(1); events in the run and spill slices are marked and
// reaped when the drain reaches them, which keeps Cancel O(1) there too.
func (q *Queue) Cancel(h Handle) {
	e := h.e
	if e == nil || e.seq != h.seq || e.where < zoneRun || e.canceled {
		return
	}
	q.n--
	q.stats.Cancelled++
	e.canceled = true
	if e.where >= zoneWheel {
		q.bucketRemove(e)
		q.reap(e)
	}
}

// Pop removes and returns the earliest event, or nil if the queue is
// empty. The caller runs it (Call) and then must hand it back with
// Release.
func (q *Queue) Pop() *Event {
	return q.take(q.front(maxTick))
}

// PopUntil removes and returns the earliest event with At <= t, or nil
// when none is due. Unlike Peek-then-Pop, the cursor never advances past
// t's tick: a far-future timer does not drag the cursor forward, so the
// caller may go on scheduling from t. This is the form clock-sliced
// drivers (sim.RunUntil) should use.
func (q *Queue) PopUntil(t time.Duration) *Event {
	e := q.front(tickOf(t))
	if e == nil || e.At > t {
		return nil
	}
	return q.take(e)
}

// take finalizes a pop of the run-slice head front just returned.
func (q *Queue) take(e *Event) *Event {
	if e == nil {
		return nil
	}
	q.runPos++
	e.where = idxPopped
	q.n--
	q.stats.Fired++
	return e
}

// Release returns a popped or canceled event to the free list. Events
// still queued, nil events, and double releases are no-ops.
func (q *Queue) Release(e *Event) {
	if e == nil || e.where != idxPopped {
		return
	}
	e.fn, e.arg = nil, nil
	e.where = idxFreed
	if q.noPool {
		return
	}
	q.free = append(q.free, e)
}

// Peek returns the earliest pending event without removing it, or nil.
// Finding it advances the cursor to that event's tick, so after a Peek
// nothing may be scheduled before the peeked tick; drivers that slice
// time should prefer PopUntil, which bounds the advance.
func (q *Queue) Peek() *Event {
	return q.front(maxTick)
}
