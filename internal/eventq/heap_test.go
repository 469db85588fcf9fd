// The binary min-heap the timing wheel replaced, retained as the
// reference implementation ("oracle") for the differential property
// tests: both queues share the Event and Handle types and must produce
// identical pop orders for identical Schedule/Cancel/Pop scripts. It
// lives in a _test.go file so no binary carries it, and it keeps its
// own sift code rather than sharing the wheel's spill heap: an oracle
// that shares the implementation under test checks nothing.
package eventq

import "time"

// zoneHeap marks an event owned by a heapQueue. It sits among the
// "still queued" codes of Event.where (>= zoneRun, below zoneWheel)
// that Queue never uses, so Handle.Pending works on the oracle's
// handles too.
const zoneHeap = 4

// heapQueue is the pre-wheel event queue: a binary min-heap ordered by
// (At, seq) with the same free-list pooling and ABA-safe handles as
// Queue. Not exported — construct it with newHeapQueue in tests.
type heapQueue struct {
	h      []*Event
	seq    uint64
	free   []*Event
	noPool bool
}

func newHeapQueue() *heapQueue { return &heapQueue{} }

func (q *heapQueue) SetPooling(on bool) { q.noPool = !on }

func (q *heapQueue) Len() int { return len(q.h) }

func (q *heapQueue) alloc() *Event {
	if n := len(q.free); n > 0 && !q.noPool {
		e := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return e
	}
	return &Event{}
}

func (q *heapQueue) push(e *Event, at time.Duration) Handle {
	seq := q.seq
	q.seq++
	return q.pushSeq(e, at, seq)
}

func (q *heapQueue) pushSeq(e *Event, at time.Duration, seq uint64) Handle {
	e.At = at
	e.seq = seq
	e.canceled = false
	e.where = zoneHeap
	e.pos = int32(len(q.h))
	q.h = append(q.h, e)
	q.siftUp(int(e.pos))
	return Handle{e: e, seq: seq}
}

func (q *heapQueue) Schedule(at time.Duration, fn func()) Handle {
	e := q.alloc()
	e.fn, e.argFn, e.arg = fn, nil, nil
	return q.push(e, at)
}

func (q *heapQueue) ScheduleArg(at time.Duration, fn func(any), arg any) Handle {
	e := q.alloc()
	e.fn, e.argFn, e.arg = nil, fn, arg
	return q.push(e, at)
}

func (q *heapQueue) ReserveSeq(n uint64) uint64 {
	base := q.seq
	q.seq += n
	return base
}

func (q *heapQueue) ScheduleArgSeq(at time.Duration, seq uint64, fn func(any), arg any) Handle {
	e := q.alloc()
	e.fn, e.argFn, e.arg = nil, fn, arg
	return q.pushSeq(e, at, seq)
}

func (q *heapQueue) Cancel(h Handle) {
	e := h.e
	if e == nil || e.seq != h.seq || e.where != zoneHeap {
		return
	}
	q.remove(int(e.pos))
	e.where = idxPopped
	e.canceled = true
	q.Release(e)
}

func (q *heapQueue) Pop() *Event {
	if len(q.h) == 0 {
		return nil
	}
	e := q.h[0]
	q.remove(0)
	e.where = idxPopped
	return e
}

func (q *heapQueue) PopUntil(t time.Duration) *Event {
	if len(q.h) == 0 || q.h[0].At > t {
		return nil
	}
	return q.Pop()
}

func (q *heapQueue) Release(e *Event) {
	if e == nil || e.where != idxPopped {
		return
	}
	e.fn, e.argFn, e.arg = nil, nil, nil
	e.where = idxFreed
	if q.noPool {
		return
	}
	q.free = append(q.free, e)
}

func (q *heapQueue) Peek() *Event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

// remove deletes the element at heap index i, restoring heap order.
func (q *heapQueue) remove(i int) {
	n := len(q.h) - 1
	if i != n {
		q.swap(i, n)
	}
	q.h[n] = nil
	q.h = q.h[:n]
	if i < n {
		q.siftDown(i)
		q.siftUp(i)
	}
}

func (q *heapQueue) swap(i, j int) {
	q.h[i], q.h[j] = q.h[j], q.h[i]
	q.h[i].pos = int32(i)
	q.h[j].pos = int32(j)
}

func (q *heapQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(q.h[i], q.h[parent]) {
			return
		}
		q.swap(i, parent)
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
		q.swap(i, min)
		i = min
	}
}
