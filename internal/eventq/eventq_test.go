package eventq

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

func drain(q *Queue) {
	for e := q.Pop(); e != nil; e = q.Pop() {
		e.Call()
		q.Release(e)
	}
}

func TestPopOrderByTime(t *testing.T) {
	var q Queue
	var got []int
	times := []time.Duration{30, 10, 20, 50, 40}
	for i, at := range times {
		i := i
		q.Schedule(at, func() { got = append(got, i) })
	}
	drain(&q)
	want := []int{1, 2, 0, 4, 3} // sorted by time 10,20,30,40,50
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

func TestStableTieBreak(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.Schedule(42, func() { got = append(got, i) })
	}
	drain(&q)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of insertion order at %d: %v", i, got[:i+1])
		}
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	fired := false
	h := q.Schedule(10, func() { fired = true })
	q.Cancel(h)
	if !h.Canceled() {
		t.Error("event not marked canceled")
	}
	if h.Pending() {
		t.Error("canceled event still pending")
	}
	if q.Len() != 0 {
		t.Errorf("queue length after cancel = %d, want 0", q.Len())
	}
	drain(&q)
	if fired {
		t.Error("canceled event fired")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	var q Queue
	h := q.Schedule(10, func() {})
	q.Cancel(h)
	q.Cancel(h)        // must not panic
	q.Cancel(Handle{}) // zero handle is a no-op
}

func TestCancelMiddleKeepsOrder(t *testing.T) {
	var q Queue
	var got []time.Duration
	var cancel Handle
	for _, at := range []time.Duration{5, 3, 9, 1, 7} {
		at := at
		h := q.Schedule(at, func() { got = append(got, at) })
		if at == 3 {
			cancel = h
		}
	}
	q.Cancel(cancel)
	drain(&q)
	want := []time.Duration{1, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	// The ABA hazard of pooling: a handle kept past its event's firing
	// must not cancel the unrelated event that reuses the struct.
	var q Queue
	stale := q.Schedule(1, func() {})
	e := q.Pop()
	e.Call()
	q.Release(e)

	fired := false
	fresh := q.Schedule(2, func() { fired = true })
	if !fresh.Pending() {
		t.Fatal("fresh event not pending")
	}
	if stale.Pending() {
		t.Error("stale handle reports the recycled event as its own")
	}
	q.Cancel(stale) // must be a no-op
	drain(&q)
	if !fired {
		t.Error("stale handle canceled a recycled event")
	}
}

func TestScheduleArg(t *testing.T) {
	var q Queue
	var got []int
	record := func(a any) { got = append(got, a.(int)) }
	q.ScheduleArg(20, record, 2)
	q.ScheduleArg(10, record, 1)
	drain(&q)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

func TestPoolReusesReleasedEvents(t *testing.T) {
	var q Queue
	h := q.Schedule(1, func() {})
	first := h.e
	e := q.Pop()
	e.Call()
	q.Release(e)
	q.Release(e) // double release must not duplicate the free entry
	if len(q.free) != 1 {
		t.Fatalf("free list has %d entries after double release, want 1", len(q.free))
	}
	h2 := q.Schedule(2, func() {})
	if h2.e != first {
		t.Error("released event was not reused")
	}
	h3 := q.Schedule(3, func() {})
	if h3.e == first {
		t.Error("one freed event satisfied two Schedules")
	}
}

func TestSetPoolingOffDisablesReuse(t *testing.T) {
	var q Queue
	q.SetPooling(false)
	h := q.Schedule(1, func() {})
	first := h.e
	e := q.Pop()
	q.Release(e)
	if h2 := q.Schedule(2, func() {}); h2.e == first {
		t.Error("pooling disabled but event was reused")
	}
}

func TestSetPoolingOffSkipsExistingFreeList(t *testing.T) {
	// Disabling pooling after events were already released must still
	// disable reuse: the free list is bypassed, not just stopped from
	// growing.
	var q Queue
	h := q.Schedule(1, func() {})
	first := h.e
	q.Release(q.Pop())
	q.SetPooling(false)
	if h2 := q.Schedule(2, func() {}); h2.e == first {
		t.Error("pooling disabled but a previously-freed event was reused")
	}
}

func TestPeek(t *testing.T) {
	var q Queue
	if q.Peek() != nil {
		t.Error("Peek on empty queue should be nil")
	}
	q.Schedule(20, func() {})
	q.Schedule(10, func() {})
	if e := q.Peek(); e == nil || e.At != 10 {
		t.Errorf("Peek = %v, want event at 10", e)
	}
	if q.Len() != 2 {
		t.Errorf("Peek must not remove; len = %d", q.Len())
	}
}

func TestPopEmpty(t *testing.T) {
	var q Queue
	if q.Pop() != nil {
		t.Error("Pop on empty queue should be nil")
	}
}

func TestRandomizedOrderingProperty(t *testing.T) {
	// Under random insertion and occasional cancellation, pops must come
	// out in nondecreasing time order.
	rnd := rand.New(rand.NewSource(1))
	var q Queue
	var handles []Handle
	var want []time.Duration
	for i := 0; i < 5000; i++ {
		at := time.Duration(rnd.Intn(1000))
		h := q.Schedule(at, func() {})
		if rnd.Intn(10) == 0 {
			handles = append(handles, h)
		} else {
			want = append(want, at)
		}
	}
	for _, h := range handles {
		q.Cancel(h)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []time.Duration
	for e := q.Pop(); e != nil; e = q.Pop() {
		got = append(got, e.At)
		q.Release(e)
	}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestScheduleDuringDrain(t *testing.T) {
	// Events scheduled by a firing event must be honored.
	var q Queue
	var got []time.Duration
	q.Schedule(1, func() {
		got = append(got, 1)
		q.Schedule(2, func() { got = append(got, 2) })
	})
	drain(&q)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

func TestSteadyStateSchedulingAllocates(t *testing.T) {
	// With pooling on and every popped event released, steady-state
	// schedule/pop cycles must not allocate at all — boxing the func()
	// as its callback's argument included.
	var q Queue
	fn := func() {}
	for i := 0; i < 1024; i++ {
		q.Schedule(time.Duration(i), fn)
	}
	allocs := testing.AllocsPerRun(10000, func() {
		e := q.Pop()
		e.Call()
		q.Release(e)
		q.Schedule(e.At+1024, fn)
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule/pop allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkScheduleAndPop measures the event-scheduling hot path at a
// steady queue depth: pop one, release it, schedule the next. With the
// free list this is the simulator's zero-allocation core loop.
func BenchmarkScheduleAndPop(b *testing.B) {
	rnd := rand.New(rand.NewSource(7))
	var q Queue
	for i := 0; i < 1024; i++ {
		q.Schedule(time.Duration(rnd.Intn(1<<20)), nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.Pop()
		q.Release(e)
		q.Schedule(e.At+time.Duration(rnd.Intn(1<<20)), nil)
	}
}

// deepBench runs the steady-depth schedule/pop loop against either
// implementation at a queue depth where the heap's O(log n) hurts:
// 16384 pending events spread over a 16.7ms window (multiple wheel
// levels). The wheel/heap pair is the acceptance comparison for the
// timing-wheel migration — the wheel must stay well ahead.
func deepBench(b *testing.B, q queueImpl) {
	const depth = 16384
	const window = 1 << 24 // ns
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < depth; i++ {
		q.Schedule(time.Duration(rnd.Intn(window)), nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.Pop()
		q.Release(e)
		q.Schedule(e.At+time.Duration(rnd.Intn(window)), nil)
	}
}

func BenchmarkScheduleAndPopDeep(b *testing.B) {
	var q Queue
	deepBench(b, &q)
}

func BenchmarkScheduleAndPopDeepHeap(b *testing.B) {
	deepBench(b, newHeapQueue())
}

func TestStatsCountSchedulesFiresAndCancels(t *testing.T) {
	var q Queue
	h := q.Schedule(5, nil)
	q.ScheduleArg(1, func(any) {}, nil)
	q.ScheduleArgSeq(2, q.ReserveSeq(4), func(any) {}, nil)
	q.Cancel(h)
	q.Cancel(h) // a stale cancel counts nothing
	drain(&q)
	q.Schedule(9, nil) // served from the free list
	if got, want := q.Stats(), (Stats{Scheduled: 4, Fired: 2, Cancelled: 1, Allocated: 3}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
}

// TestSeqReadsThePopOrderWithinAnInstant: a popped event's Seq is the
// number it was scheduled under — fresh or from a reserved block — so
// among same-instant events it ascends in pop order.
func TestSeqReadsThePopOrderWithinAnInstant(t *testing.T) {
	var q Queue
	block := q.ReserveSeq(10)
	q.Schedule(7, nil)
	q.ScheduleArgSeq(7, block+3, func(any) {}, nil)
	var got []uint64
	for e := q.Pop(); e != nil; e = q.Pop() {
		got = append(got, e.Seq())
		q.Release(e)
	}
	if want := []uint64{block + 3, block + 10}; !slices.Equal(got, want) {
		t.Errorf("popped numbers %v, want %v", got, want)
	}
}
