package tcp

import "time"

// sendWindow holds the first-send time of every segment that can still
// yield an RTT sample (Karn's algorithm: a retransmitted segment
// yields none). It is a ring indexed by seq & mask, each slot tagged
// with the segment it describes, so a segment costs no allocation.
//
// Recorded segments lie in [highestAck, nextSeq), which the pump keeps
// within min(RcvWnd, flow length) segments, the ring's size: two of
// them never share a slot. An ACK need not clear the slots it passes,
// because lookups are always at ack−1 ≥ highestAck, so a stale tag
// never equals a key that is looked up.
type sendWindow struct {
	slots []sentAt
	mask  int
}

type sentAt struct {
	seq int // -1 for an empty slot
	at  time.Duration
}

// newSendWindow returns an empty ring for a connection with receiver
// window rcvWnd and a flow of total segments (-1 for a persistent
// transfer).
func newSendWindow(rcvWnd, total int) sendWindow {
	inFlight := rcvWnd
	if total >= 0 {
		inFlight = min(inFlight, total)
	}
	n := 1
	for n < inFlight {
		n <<= 1
	}
	w := sendWindow{slots: make([]sentAt, n), mask: n - 1}
	for i := range w.slots {
		w.slots[i].seq = -1
	}
	return w
}

// send notes a transmission of seq: a retransmission forgets seq's
// send time, a first send records it. A segment is sent anew only
// after a timeout has forgotten it, so a first send never finds its
// own tag in the slot.
func (w *sendWindow) send(seq int, retransmit bool, at time.Duration) {
	if retransmit {
		w.forget(seq, seq+1)
		return
	}
	w.slots[seq&w.mask] = sentAt{seq: seq, at: at}
}

// lookup returns seq's recorded first-send time.
func (w *sendWindow) lookup(seq int) (time.Duration, bool) {
	e := w.slots[seq&w.mask]
	return e.at, e.seq == seq
}

// forget drops the send times of segments [from, to).
func (w *sendWindow) forget(from, to int) {
	for s := from; s < to; s++ {
		if e := &w.slots[s&w.mask]; e.seq == s {
			e.seq = -1
		}
	}
}
