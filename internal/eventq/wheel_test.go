package eventq

import (
	"testing"
	"time"
	"unsafe"
)

// Edge cases specific to the timing-wheel implementation: cancellation
// racing cascades, scheduling behind the cursor, handle reuse across a
// full wheel rotation, lazy cancellation in the spill slice, and the
// steady-state allocation guarantee at wheel-spanning depths.

// tick n's first instant, as a virtual time.
func tickStart(n int64) time.Duration { return time.Duration(n << tickShift) }

// TestCancelDuringCascade parks events in a level-1 bucket, forces the
// cascade by draining up to the bucket's span, then cancels one of the
// cascaded events after it has been re-placed in level 0 — and one
// sibling before the cascade while it still sits in level 1.
func TestCancelDuringCascade(t *testing.T) {
	var q Queue
	fired := map[int]bool{}
	mark := func(arg any) { fired[arg.(int)] = true }

	// Three events inside one level-1 bucket, distinct level-0 ticks.
	base := int64(2 * wheelSize) // level-1 bucket 2
	q.ScheduleArg(tickStart(base+1), mark, 0)
	h1 := q.ScheduleArg(tickStart(base+5), mark, 1)
	h2 := q.ScheduleArg(tickStart(base+9), mark, 2)
	// A sentinel before the bucket so the first pops don't cascade yet.
	q.ScheduleArg(tickStart(1), mark, 99)

	// Cancel h1 while it is still parked in level 1.
	q.Cancel(h1)
	if h1.Pending() || !h1.Canceled() {
		t.Fatalf("pre-cascade cancel: Pending=%v Canceled=%v", h1.Pending(), h1.Canceled())
	}

	// Pop the sentinel, then peek: this advances the cursor into the
	// level-1 bucket, cascading h0 and h2 down into level 0.
	e := q.Pop()
	e.Call()
	q.Release(e)
	if q.Peek() == nil {
		t.Fatal("peek found nothing after cascade")
	}
	// Cancel h2 now that the cascade has moved it to a level-0 bucket.
	q.Cancel(h2)
	if h2.Pending() || !h2.Canceled() {
		t.Fatalf("post-cascade cancel: Pending=%v Canceled=%v", h2.Pending(), h2.Canceled())
	}
	if q.Len() != 1 {
		t.Fatalf("Len() = %d after two cancels, want 1", q.Len())
	}

	for e := q.Pop(); e != nil; e = q.Pop() {
		e.Call()
		q.Release(e)
	}
	if !fired[0] || fired[1] || fired[2] || !fired[99] {
		t.Fatalf("fired = %v, want only 0 and 99", fired)
	}
}

// TestScheduleBehindCursorPanics moves the cursor deep into virtual
// time, once with Pop and once with Peek, then schedules on the
// cursor's own tick — legal, even before the instant just popped, and
// fired in (At, seq) order — and one nanosecond before that tick,
// which must panic.
func TestScheduleBehindCursorPanics(t *testing.T) {
	for _, byPeek := range []bool{false, true} {
		var q Queue
		far := tickStart(5*wheelSize) + 700 // mid-tick
		q.Schedule(far, nil)
		if byPeek {
			q.Peek()
		} else {
			q.Release(q.Pop())
		}

		var got []int
		rec := func(arg any) { got = append(got, arg.(int)) }
		tick := tickStart(5 * wheelSize)
		q.ScheduleArg(far+time.Microsecond, rec, 2)
		q.ScheduleArg(tick, rec, 0) // the tick's first instant
		q.ScheduleArg(tick, rec, 1) // same instant, scheduled later
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("peek=%v: scheduling one tick behind the cursor did not panic", byPeek)
				}
			}()
			q.ScheduleArg(tick-1, rec, -1)
		}()
		for e := q.Pop(); e != nil; e = q.Pop() {
			e.Call()
			q.Release(e)
		}
		if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Errorf("peek=%v: fire order = %v, want [0 1 2]", byPeek, got)
		}
	}
}

// TestEventIs64Bytes pins the Event layout on 64-bit targets: one
// callback and its argument, the bucket links, time, number, zone and
// the cancel mark.
func TestEventIs64Bytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Event{}) != 64 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want 64", unsafe.Sizeof(Event{}))
	}
}

// TestHandleReuseAfterFullWheelRotation recycles an event struct into a
// schedule more than a full wheel span (and spill epoch) later, and
// checks the stale handle can't touch it anywhere along the way.
func TestHandleReuseAfterFullWheelRotation(t *testing.T) {
	var q Queue
	h1 := q.Schedule(tickStart(3), func() {})
	first := h1.e
	e := q.Pop()
	e.Call()
	q.Release(e)

	// Reuse the struct for an event beyond the wheel horizon (spill).
	rotation := time.Duration(1) << (tickShift + epochShift)
	h2 := q.Schedule(2*rotation, func() {})
	if h2.e != first {
		t.Fatal("free list did not recycle the event struct")
	}
	q.Cancel(h1) // stale: must not disturb the recycled event
	if !h2.Pending() || q.Len() != 1 {
		t.Fatalf("stale cancel hit recycled event: Pending=%v Len=%d", h2.Pending(), q.Len())
	}
	// Drain across the full rotation: spill refill, cascades, pop.
	e = q.Pop()
	if e == nil || e.At != 2*rotation {
		t.Fatalf("pop after rotation = %v, want event at %v", e, 2*rotation)
	}
	q.Release(e)
	q.Cancel(h1) // still a no-op on an empty queue
	if q.Len() != 0 {
		t.Fatalf("Len() = %d after drain, want 0", q.Len())
	}
}

// TestWheelSteadyStateDoesNotAllocate keeps thousands of events spread
// across multiple wheel levels and replaces each popped event with a
// new one far ahead, so every pop exercises cursor advance (and
// periodically cascades) while every schedule exercises bucket
// placement. Steady state must not allocate.
func TestWheelSteadyStateDoesNotAllocate(t *testing.T) {
	var q Queue
	const depth = 4096
	window := time.Duration(depth) * 4 * time.Microsecond // spans level 0-2
	at := time.Duration(0)
	gap := window / depth
	for i := 0; i < depth; i++ {
		q.ScheduleArg(at, func(any) {}, nil)
		at += gap
	}
	step := func() {
		e := q.Pop()
		q.Release(e)
		q.ScheduleArg(e.At+window, func(any) {}, nil)
	}
	// Warm the pools and slice capacities through several full wheel
	// rotations before measuring.
	for i := 0; i < 4*depth; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(2*depth, step); allocs != 0 {
		t.Errorf("steady-state wheel churn allocates %.3f per op, want 0", allocs)
	}
}

// TestSpillOrderAcrossEpochs schedules far-future events in several
// distinct spill epochs interleaved with near events, and verifies the
// global pop order survives the epoch-by-epoch refills.
func TestSpillOrderAcrossEpochs(t *testing.T) {
	var q Queue
	rotation := time.Duration(1) << (tickShift + epochShift)
	want := []time.Duration{
		time.Microsecond,
		rotation + time.Millisecond,
		rotation + time.Millisecond, // same instant: seq tie-break
		3*rotation + time.Second,
		7 * rotation,
	}
	// Schedule in scrambled order.
	q.Schedule(3*rotation+time.Second, nil)
	a := q.Schedule(rotation+time.Millisecond, nil)
	q.Schedule(7*rotation, nil)
	b := q.Schedule(rotation+time.Millisecond, nil)
	q.Schedule(time.Microsecond, nil)

	var got []time.Duration
	var seqs []uint64
	for e := q.Pop(); e != nil; e = q.Pop() {
		got = append(got, e.At)
		seqs = append(seqs, e.seq)
		q.Release(e)
	}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d at %v, want %v", i, got[i], want[i])
		}
	}
	if seqs[1] != a.seq || seqs[2] != b.seq {
		t.Fatalf("same-instant spill events out of scheduling order: %v", seqs)
	}
}

// TestCancelSpilledEvent cancels an event while it waits in the spill
// slice and checks it neither fires nor corrupts the count.
func TestCancelSpilledEvent(t *testing.T) {
	var q Queue
	rotation := time.Duration(1) << (tickShift + epochShift)
	h := q.Schedule(rotation+time.Second, func() { t.Fatal("canceled spill event fired") })
	keep := q.Schedule(2*rotation, func() {})
	q.Cancel(h)
	if q.Len() != 1 {
		t.Fatalf("Len() = %d after spill cancel, want 1", q.Len())
	}
	e := q.Pop()
	if e == nil || e.At != 2*rotation {
		t.Fatalf("pop = %v, want the kept event", e)
	}
	e.Call()
	q.Release(e)
	if keep.Pending() || keep.Canceled() {
		t.Fatal("kept event should have fired normally")
	}
	if q.Pop() != nil {
		t.Fatal("queue should be empty")
	}
}

// TestCanceledSpillEntryReapedAtRefill cancels a spilled event that
// shares its epoch with a live one but fires after it. The refill that
// brings the live one into the wheel must recycle the canceled one on
// the way, not file it into a bucket where it would linger.
func TestCanceledSpillEntryReapedAtRefill(t *testing.T) {
	var q Queue
	rotation := time.Duration(1) << (tickShift + epochShift)
	keep := q.Schedule(rotation+time.Millisecond, nil)
	gone := q.Schedule(rotation+2*time.Millisecond, nil)
	q.Cancel(gone)
	if gone.e.where != zoneSpill {
		t.Fatalf("canceled spill entry left its slice at cancel: where = %d", gone.e.where)
	}
	e := q.Pop()
	if e == nil || e != keep.e {
		t.Fatalf("pop = %v, want the kept event", e)
	}
	if gone.e.where != idxFreed {
		t.Fatalf("after the refill the canceled entry is in zone %d, want it on the free list", gone.e.where)
	}
	q.Release(e)
	if q.Pop() != nil || len(q.free) != 2 {
		t.Fatalf("queue not empty, or free list holds %d structs, want 2", len(q.free))
	}
}

// TestCanceledSpillEntryDoesNotMoveCursor empties a queue whose only
// remaining entry is a canceled spilled event. Finding nothing to pop
// must reap it without moving the cursor to its tick, so the caller can
// still schedule just ahead of the last event it ran.
func TestCanceledSpillEntryDoesNotMoveCursor(t *testing.T) {
	var q Queue
	rotation := time.Duration(1) << (tickShift + epochShift)
	q.Cancel(q.Schedule(rotation+time.Second, nil))
	if e := q.Pop(); e != nil {
		t.Fatalf("pop = %v from a queue holding only a canceled event", e)
	}
	q.Schedule(time.Millisecond, nil) // panics if the cursor jumped ahead
	if e := q.Pop(); e == nil || e.At != time.Millisecond {
		t.Fatalf("pop = %v, want the event at 1ms", e)
	}
}
