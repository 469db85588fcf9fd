package tcp

import (
	"testing"
	"time"
)

// mapTimes is the send-time bookkeeping sendWindow replaced, kept as
// its oracle: first-send times in a map, deleted on a retransmission,
// on every cumulative ACK and on a timeout's rewind.
type mapTimes map[int]time.Duration

func (m mapTimes) send(seq int, retransmit bool, at time.Duration) {
	if retransmit {
		delete(m, seq)
	} else if _, seen := m[seq]; !seen {
		m[seq] = at
	}
}

// ack samples ack−1 and forgets everything the ACK covers.
func (m mapTimes) ack(highestAck, ack int) (time.Duration, bool) {
	t0, ok := m[ack-1]
	for s := highestAck; s < ack; s++ {
		delete(m, s)
	}
	return t0, ok
}

func (m mapTimes) rewind(highestAck, nextSeq int) {
	for s := highestAck; s < nextSeq; s++ {
		delete(m, s)
	}
}

// FuzzSendTimesMatchMap drives sendWindow and the map it replaced
// through one script of sender events, under the sequence rules Conn
// keeps: fresh sends at nextSeq while nextSeq < highestAck + RcvWnd
// and nextSeq < the flow length (below highestAck too, after a late
// ACK), retransmissions of
// highestAck, cumulative ACKs up to the highest segment ever sent
// (past nextSeq after a rewind), duplicate ACKs, partial ACKs and
// RTOs. Every RTT sample, and the send time of every segment an ACK
// could still sample, must agree.
//
// The script is data[0] (RcvWnd − 1), data[1] (the flow length in
// segments, 0 for a persistent transfer), then (op, arg) pairs.
func FuzzSendTimesMatchMap(f *testing.F) {
	const (
		opSend = iota
		opRetransmit
		opAck
		opPartialAck
		opDupAck
		opRTO
		numOps
	)
	// Slow start, a loss repaired by fast retransmit, then acks.
	f.Add([]byte{15, 0, opSend, 3, opAck, 1, opSend, 7, opDupAck, 0, opDupAck, 0, opDupAck, 0, opPartialAck, 2, opAck, 9})
	// Go-back-N: an RTO rewinds nextSeq, a late cumulative ACK from the
	// first flight jumps past it, and the pump resends segments below
	// highestAck before reaching new ones.
	f.Add([]byte{7, 0, opSend, 7, opRTO, 0, opSend, 0, opAck, 4, opSend, 7, opAck, 5, opSend, 7, opAck, 30})
	// A wide window: several flights, an RTO with segments in flight,
	// then one cumulative ACK across the rewind.
	f.Add([]byte{63, 0, opSend, 7, opSend, 7, opAck, 3, opSend, 7, opSend, 7, opRTO, 0, opSend, 7, opAck, 40})
	// A mouse: a flow shorter than its window, with a loss repaired
	// by an RTO and a cumulative ACK to the last segment.
	f.Add([]byte{31, 12, opSend, 7, opAck, 2, opSend, 7, opSend, 7, opRTO, 0, opSend, 7, opAck, 17, opSend, 7, opAck, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rcvWnd, total := 1+int(data[0])%64, int(data[1])%80
		if total == 0 {
			total = -1
		}
		w := newSendWindow(rcvWnd, total)
		m := mapTimes{}
		var (
			highestAck, nextSeq, maxSent, dupAcks int
			now                                   time.Duration
		)
		send := func(seq int, retransmit bool) {
			w.send(seq, retransmit, now)
			m.send(seq, retransmit, now)
		}
		ack := func(to int) {
			wt, wok := w.lookup(to - 1)
			mt, mok := m.ack(highestAck, to)
			if wok != mok || wok && wt != mt {
				t.Fatalf("ACK %d (highestAck %d, nextSeq %d): window sample (%v, %v), map (%v, %v)",
					to, highestAck, nextSeq, wt, wok, mt, mok)
			}
			highestAck, dupAcks = to, 0
		}
		for i := 2; i+1 < len(data); i += 2 {
			op, arg := int(data[i])%numOps, int(data[i+1])
			now += time.Duration(arg+1) * time.Microsecond
			switch op {
			case opSend:
				for n := 0; n <= arg%8 && nextSeq < highestAck+rcvWnd && (total < 0 || nextSeq < total); n++ {
					send(nextSeq, false)
					nextSeq++
				}
				if nextSeq > maxSent {
					maxSent = nextSeq
				}
			case opRetransmit:
				send(highestAck, true)
			case opAck, opPartialAck:
				if maxSent <= highestAck {
					continue
				}
				ack(highestAck + 1 + arg%(maxSent-highestAck))
				if op == opPartialAck {
					send(highestAck, true)
				}
			case opDupAck:
				if dupAcks++; dupAcks == 3 {
					send(highestAck, true)
				}
			case opRTO:
				if highestAck < nextSeq {
					w.forget(highestAck, nextSeq)
					m.rewind(highestAck, nextSeq)
					nextSeq = highestAck
				}
			}
			for k := highestAck; k < highestAck+rcvWnd; k++ {
				wt, wok := w.lookup(k)
				mt, mok := m[k]
				if wok != mok || wok && wt != mt {
					t.Fatalf("after op %d at %v: segment %d (highestAck %d, nextSeq %d): window (%v, %v), map (%v, %v)",
						op, now, k, highestAck, nextSeq, wt, wok, mt, mok)
				}
			}
		}
	})
}
