// Package tcp implements a packet-level TCP Reno sender/receiver pair on
// the discrete-event simulator: slow start, congestion avoidance, fast
// retransmit/recovery, retransmission timeouts, and — centrally for the
// paper's Figure 7 — the receiver advertised window Wr that caps the
// sending window regardless of congestion state.
//
// The paper's tenth pitfall is evaluating avail-bw estimators against
// bulk TCP throughput; this package exists to regenerate the evidence:
// TCP throughput depends on Wr, buffering, RTT, loss and cross-traffic
// responsiveness, and can land on either side of the avail-bw.
package tcp

import (
	"fmt"
	"time"

	"abw/internal/eventq"
	"abw/internal/sim"
	"abw/internal/unit"
)

// Config tunes a connection. Zero fields take defaults.
type Config struct {
	// RcvWnd is the receiver advertised window in segments — the Wr of
	// Figure 7 (default 64).
	RcvWnd int
	// maxBytes ends the transfer after that much payload is acked;
	// 0 means a persistent (bulk) transfer. Mice sets it per flow.
	maxBytes unit.Bytes
	// acked, if set, is an aggregate's counter (Mice's) that every
	// segment the connection newly acks is added to.
	acked *int
}

// Every connection sends mss payload bytes a segment (the wire segment
// adds headerBytes), starts with an initCwnd-segment congestion window,
// and floors its retransmission timeout at rtoMin.
const (
	mss      unit.Bytes = 1460
	initCwnd            = 2
	rtoMin              = 200 * time.Millisecond
)

func (c Config) withDefaults() (Config, error) {
	if c.RcvWnd == 0 {
		c.RcvWnd = 64
	}
	if c.RcvWnd < 1 {
		return c, fmt.Errorf("tcp: receiver window must be at least 1 segment")
	}
	if c.maxBytes < 0 {
		return c, fmt.Errorf("tcp: negative maxBytes")
	}
	return c, nil
}

const headerBytes = 40 // TCP/IP header overhead per segment
const ackBytes = 40    // pure ACK size on the wire

// Conn is one simulated TCP connection transferring data over a forward
// route with ACKs on a reverse route.
type Conn struct {
	s        *sim.Sim
	fwd, rev []*sim.Link
	cfg      Config
	flow     int

	// Sender state (sequence numbers count segments, not bytes).
	nextSeq     int
	highestAck  int // first unacked segment
	cwnd        float64
	ssthresh    float64
	dupAcks     int
	inRecovery  bool
	recoverSeq  int
	sent        sendWindow // first-send times of segments in flight (Karn)
	srtt, rttvr float64    // seconds
	rtoTimer    eventq.Handle
	rtoBackoff  int
	done        bool

	// Receiver state.
	rcvNext  int
	outOfOrd map[int]bool

	// Stats.
	retransmits int
	timeouts    int

	// Long-lived callbacks built once in New, so that no segment, ACK
	// or retransmission timer allocates a closure.
	dataFn, ackFn func(p *sim.Packet, at time.Duration)
	timeoutFn     func()
}

// New creates a connection over the given routes. The forward route
// carries data segments; the reverse route carries ACKs. Both may share
// links (two-way traffic over the same bottleneck) or be disjoint (the
// usual asymmetric-measurement setup).
func New(s *sim.Sim, fwd, rev []*sim.Link, flow int, cfg Config) (*Conn, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if s == nil || len(fwd) == 0 {
		return nil, fmt.Errorf("tcp: simulation and a forward route are required")
	}
	conn := &Conn{
		s:        s,
		fwd:      fwd,
		rev:      rev,
		cfg:      c,
		flow:     flow,
		cwnd:     float64(initCwnd),
		ssthresh: 1 << 20, // effectively unbounded until the first loss
	}
	conn.sent = newSendWindow(c.RcvWnd, conn.totalSegments())
	conn.dataFn = func(p *sim.Packet, _ time.Duration) { conn.onData(p.Seq) }
	conn.ackFn = func(p *sim.Packet, _ time.Duration) { conn.onAck(p.Seq) }
	conn.timeoutFn = conn.onTimeout
	return conn, nil
}

// Start begins the transfer at the given virtual time.
func (c *Conn) Start(at time.Duration) {
	c.s.At(at, c.pump)
}

// window returns the current send window in whole segments.
func (c *Conn) window() int {
	w := c.cwnd
	if rw := float64(c.cfg.RcvWnd); rw < w {
		w = rw
	}
	if w < 1 {
		w = 1
	}
	return int(w)
}

// totalSegments returns the transfer length in segments, or -1 for a
// persistent transfer.
func (c *Conn) totalSegments() int {
	if c.cfg.maxBytes == 0 {
		return -1
	}
	n := int((c.cfg.maxBytes + mss - 1) / mss)
	if n < 1 {
		n = 1
	}
	return n
}

// maxBurst bounds how many new segments one ACK (or timeout) may
// release — the ns-2-style "maxburst" guard against the line-rate bursts
// that follow large cumulative ACKs.
const maxBurst = 8

// pump sends as many new segments as the window allows, up to maxBurst.
func (c *Conn) pump() {
	if c.done {
		return
	}
	total := c.totalSegments()
	sent := 0
	for c.nextSeq < c.highestAck+c.window() && sent < maxBurst {
		if total >= 0 && c.nextSeq >= total {
			break
		}
		c.sendSegment(c.nextSeq, false)
		c.nextSeq++
		sent++
	}
	c.armRTO()
}

// sendSegment transmits one segment (fresh or retransmission) in a
// pooled packet, which the simulation recycles after delivery.
func (c *Conn) sendSegment(seq int, isRetransmit bool) {
	if isRetransmit {
		c.retransmits++
	}
	c.sent.send(seq, isRetransmit, c.s.Now())
	c.inject(mss+headerBytes, sim.KindData, seq, c.fwd, c.dataFn)
}

// inject sends one pooled packet from now.
func (c *Conn) inject(size unit.Bytes, kind sim.Kind, seq int, route []*sim.Link, onArrive func(*sim.Packet, time.Duration)) {
	p := c.s.NewPacket()
	p.Size, p.Kind, p.Flow, p.Seq = size, kind, c.flow, seq
	p.Route, p.OnArrive = route, onArrive
	c.s.Inject(p, c.s.Now())
}

// onData runs at the receiver: advance the cumulative ACK point and send
// an ACK (possibly a duplicate).
func (c *Conn) onData(seq int) {
	if seq == c.rcvNext {
		c.rcvNext++
		for c.outOfOrd[c.rcvNext] {
			delete(c.outOfOrd, c.rcvNext)
			c.rcvNext++
		}
	} else if seq > c.rcvNext {
		if c.outOfOrd == nil {
			c.outOfOrd = make(map[int]bool)
		}
		c.outOfOrd[seq] = true
	}
	c.inject(ackBytes, sim.KindAck, c.rcvNext, c.rev, c.ackFn)
}

// onAck runs at the sender.
func (c *Conn) onAck(ack int) {
	if c.done {
		return
	}
	if ack > c.highestAck {
		newly := ack - c.highestAck
		// RTT sample from the highest newly acked segment that was
		// never retransmitted.
		if t0, ok := c.sent.lookup(ack - 1); ok {
			c.updateRTT((c.s.Now() - t0).Seconds())
		}
		c.highestAck = ack
		c.dupAcks = 0
		c.rtoBackoff = 0
		if c.inRecovery {
			if ack > c.recoverSeq {
				c.inRecovery = false
				c.cwnd = c.ssthresh
			} else {
				// Partial ACK (NewReno): retransmit the next hole.
				c.sendSegment(ack, true)
			}
		} else if c.cwnd < c.ssthresh {
			// Slow start per RFC 5681: at most one segment per ACK,
			// regardless of how much the cumulative ACK advanced —
			// otherwise a post-recovery cumulative ACK would inflate
			// cwnd in one step and the resulting line-rate burst would
			// overflow the bottleneck buffer again.
			c.cwnd++
		} else {
			inc := float64(newly) / c.cwnd
			if inc > 1 {
				inc = 1
			}
			c.cwnd += inc // congestion avoidance
		}
		if c.cfg.acked != nil {
			*c.cfg.acked += newly
		}
		if total := c.totalSegments(); total >= 0 && ack >= total {
			c.done = true
			c.disarmRTO()
			return
		}
		c.pump()
		return
	}
	// Duplicate ACK.
	c.dupAcks++
	if c.dupAcks == 3 && !c.inRecovery {
		flight := float64(c.nextSeq - c.highestAck)
		c.ssthresh = flight / 2
		if c.ssthresh < 2 {
			c.ssthresh = 2
		}
		c.cwnd = c.ssthresh + 3
		c.inRecovery = true
		c.recoverSeq = c.nextSeq
		c.sendSegment(c.highestAck, true) // fast retransmit
		c.armRTO()
	} else if c.inRecovery {
		c.cwnd++ // inflate per additional dup ACK
		c.pump()
	}
}

func (c *Conn) updateRTT(sample float64) {
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvr = sample / 2
		return
	}
	const alpha, beta = 0.125, 0.25
	diff := sample - c.srtt
	if diff < 0 {
		diff = -diff
	}
	c.rttvr = (1-beta)*c.rttvr + beta*diff
	c.srtt = (1-alpha)*c.srtt + alpha*sample
}

// rto returns the current retransmission timeout.
func (c *Conn) rto() time.Duration {
	base := rtoMin
	if c.srtt > 0 {
		d := time.Duration((c.srtt + 4*c.rttvr) * 1e9)
		if d > base {
			base = d
		}
	}
	return base << uint(c.rtoBackoff)
}

func (c *Conn) armRTO() {
	c.disarmRTO()
	if c.done || c.highestAck >= c.nextSeq {
		return // nothing in flight
	}
	c.rtoTimer = c.s.After(c.rto(), c.timeoutFn)
}

func (c *Conn) disarmRTO() {
	// Cancel tolerates stale handles (fired or recycled events), so no
	// pending check is needed.
	c.s.Cancel(c.rtoTimer)
	c.rtoTimer = eventq.Handle{}
}

// onTimeout handles an RTO: collapse to slow start and go back to the
// first unacked segment. Rewinding nextSeq (go-back-N) is what lets the
// sender recover from multiple losses in one window — without it, later
// holes would only ever be repaired one per RTO and throughput would
// collapse. The receiver's reassembly buffer turns the redundant
// retransmissions into fast cumulative-ACK jumps.
func (c *Conn) onTimeout() {
	if c.done || c.highestAck >= c.nextSeq {
		return
	}
	c.timeouts++
	flight := float64(c.nextSeq - c.highestAck)
	c.ssthresh = flight / 2
	if c.ssthresh < 2 {
		c.ssthresh = 2
	}
	c.cwnd = 1
	c.inRecovery = false
	c.dupAcks = 0
	if c.rtoBackoff < 6 {
		c.rtoBackoff++
	}
	// Karn's algorithm: anything beyond the rewind point may be sent
	// twice, so none of it can produce an RTT sample.
	c.sent.forget(c.highestAck, c.nextSeq)
	c.retransmits += c.nextSeq - c.highestAck
	c.nextSeq = c.highestAck
	c.pump()
}

// Done reports whether a size-limited transfer has completed.
func (c *Conn) Done() bool { return c.done }

// AckedBytes returns the payload bytes cumulatively acked.
func (c *Conn) AckedBytes() unit.Bytes {
	return unit.Bytes(c.highestAck) * mss
}

// Retransmits returns the retransmission count.
func (c *Conn) Retransmits() int { return c.retransmits }

// Timeouts returns the RTO count.
func (c *Conn) Timeouts() int { return c.timeouts }
