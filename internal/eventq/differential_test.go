package eventq

import (
	"math/rand"
	"testing"
	"time"
)

// queueImpl is the surface the differential test drives; Queue (the
// timing wheel) and heapQueue (the retained min-heap) both satisfy it.
type queueImpl interface {
	Schedule(time.Duration, func()) Handle
	ScheduleArg(time.Duration, func(any), any) Handle
	ReserveSeq(uint64) uint64
	ScheduleArgSeq(time.Duration, uint64, func(any), any) Handle
	Cancel(Handle)
	Pop() *Event
	PopUntil(time.Duration) *Event
	Release(*Event)
	Peek() *Event
	Len() int
	SetPooling(bool)
}

// scheduleAt picks an instant for a randomized schedule op, mixing the
// regimes the wheel treats differently: the cursor's own tick, nearby
// level-0 buckets, mid-wheel levels, the far future (spill), and exact
// duplicates of an earlier instant for tie-break coverage. It never
// picks an instant before now, as a simulator never schedules into its
// past.
func scheduleAt(r *rand.Rand, now, prev time.Duration) time.Duration {
	switch r.Intn(10) {
	case 0: // same instant as an earlier event: seq must break the tie
		return max(prev, now)
	case 1, 2, 3, 4: // current or adjacent ticks
		return now + time.Duration(r.Int63n(3<<tickShift))
	case 5, 6, 7: // level 0-1 of the wheel
		return now + time.Duration(r.Int63n(int64(wheelSize)<<(tickShift+wheelBits)))
	case 8: // level 2-3
		return now + time.Duration(r.Int63n(1<<(tickShift+3*wheelBits)))
	default: // beyond the horizon: spill
		return now + time.Duration(1)<<(tickShift+epochShift) + time.Duration(r.Int63n(int64(time.Hour)))
	}
}

// TestWheelMatchesHeapDifferential runs wheelMatchesHeap over a fixed
// set of seeds; FuzzWheelMatchesHeap explores further ones.
func TestWheelMatchesHeapDifferential(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		wheelMatchesHeap(t, seed)
	}
}

// FuzzWheelMatchesHeap runs the differential script under fuzzed
// seeds. testdata/fuzz/FuzzWheelMatchesHeap holds its seed corpus.
func FuzzWheelMatchesHeap(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(13))
	f.Fuzz(func(t *testing.T, seed int64) {
		wheelMatchesHeap(t, seed)
	})
}

// wheelMatchesHeap drives the wheel and the heap with an identical
// randomized Schedule/Cancel/Pop/PopUntil/Peek script drawn from seed
// and asserts identical observable behavior at every step: lengths,
// peeked and popped (At, payload) pairs — covering same-instant
// tie-breaks — and the outcome of cancels through live, stale, and
// recycled handles. The script also reserves sequence-number blocks and
// schedules under their numbers out of order, long after ordinary
// events have taken later numbers: at every regime scheduleAt covers
// (the cursor's tick, each wheel level, beyond the epoch) and from
// inside a drain at the instant just popped. Its clock advances on
// every pop, bounded drain and peek, as a simulator's would, and it
// never schedules before it.
func wheelMatchesHeap(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	var w Queue
	h := newHeapQueue()
	impls := [2]queueImpl{&w, h}

	// Parallel handle logs, one per implementation, including fired and
	// canceled handles so cancels exercise staleness.
	var handles [2][]Handle
	now, prev := time.Duration(0), time.Duration(-1)
	nextPayload := 0

	// Reserved sequence numbers not yet scheduled under; each is used at
	// most once, as the Handle contract requires.
	var reserved []uint64
	scheduleReserved := func(at time.Duration) {
		if len(reserved) == 0 {
			return
		}
		j := r.Intn(len(reserved))
		seq := reserved[j]
		reserved[j] = reserved[len(reserved)-1]
		reserved = reserved[:len(reserved)-1]
		payload := nextPayload
		nextPayload++
		for i, q := range impls {
			handles[i] = append(handles[i], q.ScheduleArgSeq(at, seq, func(any) {}, payload))
		}
	}
	// midDrain schedules, one time in three, under a reserved number at
	// (or within two ticks of) the instant just popped: the same-tick
	// insert a lazy source makes while it fires, with a number that may
	// sort before events already in the run slice — or before the event
	// just popped.
	midDrain := func(at time.Duration) {
		if r.Intn(3) != 0 {
			return
		}
		if r.Intn(2) == 0 {
			at += time.Duration(r.Int63n(3 << tickShift))
		}
		scheduleReserved(at)
	}
	// same fails unless both implementations returned the same event.
	same := func(op int, what string, ew, eh *Event) {
		if (ew == nil) != (eh == nil) {
			t.Fatalf("seed %d op %d: %s: wheel %v, heap %v", seed, op, what, ew, eh)
		}
		if ew != nil && (ew.At != eh.At || ew.arg != eh.arg) {
			t.Fatalf("seed %d op %d: %s mismatch: wheel (%v, %v) heap (%v, %v)",
				seed, op, what, ew.At, ew.arg, eh.At, eh.arg)
		}
	}

	pop := func(op int) {
		var popped [2]*Event
		for i, q := range impls {
			popped[i] = q.Pop()
		}
		same(op, "Pop", popped[0], popped[1])
		if popped[0] == nil {
			return
		}
		now = max(now, popped[0].At)
		for i, q := range impls {
			q.Release(popped[i])
		}
		midDrain(now)
	}

	// A schedule behind the cursor panics; name the row it happened at.
	const ops = 4000
	op := 0
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("seed %d op %d: %v", seed, op, r)
		}
	}()
	for ; op < ops; op++ {
		switch k := r.Intn(100); {
		case k < 40: // schedule
			at := scheduleAt(r, now, prev)
			prev = at
			payload := nextPayload
			nextPayload++
			for i, q := range impls {
				handles[i] = append(handles[i], q.ScheduleArg(at, func(any) {}, payload))
			}
		case k < 45: // reserve a block
			n := uint64(1 + r.Intn(8))
			base := w.ReserveSeq(n)
			if hb := h.ReserveSeq(n); hb != base {
				t.Fatalf("seed %d op %d: ReserveSeq: wheel %d heap %d", seed, op, base, hb)
			}
			for i := uint64(0); i < n; i++ {
				reserved = append(reserved, base+i)
			}
		case k < 55: // schedule under a reserved number, out of order
			at := scheduleAt(r, now, prev)
			prev = at
			scheduleReserved(at)
		case k < 75: // cancel a random handle — possibly stale
			if len(handles[0]) == 0 {
				continue
			}
			j := r.Intn(len(handles[0]))
			wasPending := handles[0][j].Pending()
			if p1 := handles[1][j].Pending(); wasPending != p1 {
				t.Fatalf("seed %d op %d: Pending mismatch: wheel %v heap %v", seed, op, wasPending, p1)
			}
			for i, q := range impls {
				q.Cancel(handles[i][j])
			}
			// A live cancel must register on both. (A stale cancel's
			// Canceled() may differ: it reports false once the struct is
			// recycled, and the implementations recycle at different
			// times — a timing the contract never fixed.)
			if wasPending {
				for i := range impls {
					if h := handles[i][j]; h.Pending() || !h.Canceled() {
						t.Fatalf("seed %d op %d impl %d: live cancel: Pending=%v Canceled=%v",
							seed, op, i, h.Pending(), h.Canceled())
					}
				}
			}
		case k < 85: // pop a burst
			for i := r.Intn(4); i >= 0; i-- {
				pop(op)
			}
		case k < 95: // drain a bounded slice, RunUntil-style
			deadline := now + time.Duration(r.Int63n(int64(200*time.Millisecond)))
			for {
				var popped [2]*Event
				for i, q := range impls {
					popped[i] = q.PopUntil(deadline)
				}
				same(op, "PopUntil", popped[0], popped[1])
				if popped[0] == nil {
					break
				}
				at := popped[0].At
				for i, q := range impls {
					q.Release(popped[i])
				}
				midDrain(at)
			}
			now = deadline
		default: // peek, and move the clock to what it shows
			pw, ph := impls[0].Peek(), impls[1].Peek()
			same(op, "Peek", pw, ph)
			if pw != nil {
				now = max(now, pw.At)
			}
		}
		if w.Len() != h.Len() {
			t.Fatalf("seed %d op %d: Len mismatch: wheel %d heap %d", seed, op, w.Len(), h.Len())
		}
	}

	// Drain both queues completely; every remaining pop must match.
	for w.Len() > 0 || h.Len() > 0 {
		pop(ops)
	}
	pop(ops) // both empty: both must return nil
}

// TestWheelMatchesHeapUnpooled repeats a short differential run with
// pooling off, so recycled-struct aliasing can't mask an ordering bug.
func TestWheelMatchesHeapUnpooled(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var w Queue
	h := newHeapQueue()
	w.SetPooling(false)
	h.SetPooling(false)
	now, prev := time.Duration(0), time.Duration(-1)
	for op := 0; op < 1200; op++ {
		if r.Intn(3) > 0 {
			at := scheduleAt(r, now, prev)
			prev = at
			w.Schedule(at, nil)
			h.Schedule(at, nil)
			continue
		}
		ew, eh := w.Pop(), h.Pop()
		if (ew == nil) != (eh == nil) {
			t.Fatalf("op %d: pop nil mismatch", op)
		}
		if ew == nil {
			continue
		}
		if ew.At != eh.At || ew.seq != eh.seq {
			t.Fatalf("op %d: pop mismatch: wheel (%v, %d) heap (%v, %d)", op, ew.At, ew.seq, eh.At, eh.seq)
		}
		now = max(now, ew.At)
		w.Release(ew)
		h.Release(eh)
	}
}
