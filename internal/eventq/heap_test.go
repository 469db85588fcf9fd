// The binary min-heap the timing wheel replaced, retained as the
// reference implementation ("oracle") for the differential property
// tests: both queues share the Event and Handle types and must produce
// identical pop orders for identical Schedule/Cancel/Pop scripts. It
// lives in a _test.go file so no binary carries it, and it shares no
// ordering code with the wheel beyond less: an oracle that shares the
// implementation under test checks nothing.
package eventq

import "time"

// zoneHeap marks an event owned by a heapQueue. It sits among the
// "still queued" codes of Event.where (>= zoneRun, below zoneWheel)
// that Queue never uses, so Handle.Pending works on the oracle's
// handles too.
const zoneHeap = 3

// heapQueue is the pre-wheel event queue: a binary min-heap ordered by
// (At, seq) with the same free-list pooling and ABA-safe handles as
// Queue. Cancel is lazy — the entry is marked and dropped when it
// reaches the top — so the heap needs no index back into itself. Not
// exported — construct it with newHeapQueue in tests.
type heapQueue struct {
	h      []*Event
	n      int // live (uncanceled) entries
	seq    uint64
	free   []*Event
	noPool bool
}

func newHeapQueue() *heapQueue { return &heapQueue{} }

func (q *heapQueue) SetPooling(on bool) { q.noPool = !on }

func (q *heapQueue) Len() int { return q.n }

func (q *heapQueue) alloc() *Event {
	if n := len(q.free); n > 0 && !q.noPool {
		e := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return e
	}
	return &Event{}
}

func (q *heapQueue) Schedule(at time.Duration, fn func()) Handle {
	return q.ScheduleArg(at, callFunc, fn)
}

func (q *heapQueue) ScheduleArg(at time.Duration, fn func(any), arg any) Handle {
	seq := q.seq
	q.seq += 2
	return q.ScheduleArgSeq(at, seq, fn, arg)
}

func (q *heapQueue) ReserveSeq(n uint64) uint64 {
	base := q.seq
	q.seq += n + n&1
	return base
}

func (q *heapQueue) ScheduleArgSeq(at time.Duration, seq uint64, fn func(any), arg any) Handle {
	e := q.alloc()
	e.At, e.seq, e.fn, e.arg, e.canceled = at, seq, fn, arg, false
	e.where = zoneHeap
	q.h = append(q.h, e)
	q.siftUp(len(q.h) - 1)
	q.n++
	return Handle{e: e, seq: seq}
}

func (q *heapQueue) Cancel(h Handle) {
	e := h.e
	if e == nil || e.seq != h.seq || e.where != zoneHeap || e.canceled {
		return
	}
	e.canceled = true
	q.n--
}

// top drops canceled entries off the top and returns the minimum live
// one, or nil.
func (q *heapQueue) top() *Event {
	for len(q.h) > 0 {
		e := q.h[0]
		if !e.canceled {
			return e
		}
		q.popTop()
		e.where = idxPopped
		q.Release(e)
	}
	return nil
}

func (q *heapQueue) Pop() *Event {
	e := q.top()
	if e == nil {
		return nil
	}
	q.popTop()
	q.n--
	e.where = idxPopped
	return e
}

func (q *heapQueue) PopUntil(t time.Duration) *Event {
	if e := q.top(); e == nil || e.At > t {
		return nil
	}
	return q.Pop()
}

func (q *heapQueue) Release(e *Event) {
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

func (q *heapQueue) Peek() *Event { return q.top() }

// popTop removes the heap's root, restoring heap order.
func (q *heapQueue) popTop() {
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	q.siftDown(0)
}

func (q *heapQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(q.h[i], q.h[parent]) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *heapQueue) siftDown(i int) {
	n := len(q.h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && less(q.h[right], q.h[left]) {
			min = right
		}
		if !less(q.h[min], q.h[i]) {
			return
		}
		q.h[i], q.h[min] = q.h[min], q.h[i]
		i = min
	}
}
