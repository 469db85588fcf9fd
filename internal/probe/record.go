package probe

import (
	"fmt"
	"time"

	"abw/internal/unit"
)

// Lost marks a packet that never reached the receiver in a Record.
const Lost = time.Duration(-1)

// Record is the outcome of sending one probing stream: per-packet send
// and receive timestamps on a common (virtual or wall) clock. Receive
// entries equal Lost for dropped packets.
type Record struct {
	Spec StreamSpec
	Sent []time.Duration
	Recv []time.Duration

	resolved int // packets either received or confirmed dropped
}

// Done reports whether every packet has been resolved: received or
// confirmed dropped. Only senders that track drops (core.SimTransport,
// the live transport) maintain this; hand-built records report Done only
// when complete.
func (r *Record) Done() bool {
	return r.resolved >= r.Spec.Count || r.Complete()
}

// MarkResolved records that one more packet's fate is known. Senders
// call it once per packet on arrival or drop.
func (r *Record) MarkResolved() { r.resolved++ }

// NewRecord allocates a record for the given spec with all packets
// initially marked lost. Sent and Recv share one backing array.
func NewRecord(spec StreamSpec) *Record {
	n := spec.Count
	buf := make([]time.Duration, 2*n)
	r := &Record{Spec: spec, Sent: buf[:n:n], Recv: buf[n:]}
	for i := range r.Recv {
		r.Recv[i] = Lost
	}
	return r
}

// LossCount returns the number of lost packets.
func (r *Record) LossCount() int {
	n := 0
	for _, t := range r.Recv {
		if t == Lost {
			n++
		}
	}
	return n
}

// Complete reports whether every packet arrived.
func (r *Record) Complete() bool { return r.LossCount() == 0 }

// OWDs returns the one-way delays of received packets, in packet order,
// skipping losses.
func (r *Record) OWDs() []time.Duration {
	out := make([]time.Duration, 0, len(r.Recv))
	for i, t := range r.Recv {
		if t == Lost {
			continue
		}
		out = append(out, t-r.Sent[i])
	}
	return out
}

// RelativeOWDsMs returns one-way delays in milliseconds relative to the
// minimum observed delay, the normalization the paper's Figure 5 plots.
func (r *Record) RelativeOWDsMs() []float64 {
	owds := r.OWDs()
	if len(owds) == 0 {
		return nil
	}
	min := owds[0]
	for _, d := range owds[1:] {
		if d < min {
			min = d
		}
	}
	out := make([]float64, len(owds))
	for i, d := range owds {
		out[i] = float64(d-min) / float64(time.Millisecond)
	}
	return out
}

// InputRate returns the achieved input rate Ri over the whole stream,
// measured from the actual send timestamps.
func (r *Record) InputRate() unit.Rate {
	first, last, n := r.sentSpan()
	if n < 2 {
		return 0
	}
	return unit.RateOf(r.Spec.PktSize*unit.Bytes(n-1), last-first)
}

// OutputRate returns Ro: the rate at which the stream arrived, measured
// from the first to the last received packet. Lost packets shrink the
// delivered volume accordingly.
func (r *Record) OutputRate() unit.Rate {
	var first, last time.Duration
	n := 0
	for _, t := range r.Recv {
		if t == Lost {
			continue
		}
		if n == 0 {
			first = t
		}
		if t > last {
			last = t
		}
		n++
	}
	if n < 2 || last <= first {
		return 0
	}
	return unit.RateOf(r.Spec.PktSize*unit.Bytes(n-1), last-first)
}

// Ratio returns Ro/Ri, the quantity Figures 3 and 4 sweep. It returns 0
// when either rate is unmeasurable.
func (r *Record) Ratio() float64 {
	ri := r.InputRate()
	ro := r.OutputRate()
	if ri <= 0 || ro <= 0 {
		return 0
	}
	return float64(ro) / float64(ri)
}

// PairOutputRate returns the output rate of the pair (k, k+1), or 0 if
// either packet was lost or timestamps are degenerate. Pair-based tools
// (Spruce, TOPP, pathChirp) consume this.
func (r *Record) PairOutputRate(k int) unit.Rate {
	if k < 0 || k+1 >= len(r.Recv) {
		return 0
	}
	a, b := r.Recv[k], r.Recv[k+1]
	if a == Lost || b == Lost || b <= a {
		return 0
	}
	return unit.RateOf(r.Spec.PktSize, b-a)
}

// PairInputRate returns the send rate of the pair (k, k+1).
func (r *Record) PairInputRate(k int) unit.Rate {
	if k < 0 || k+1 >= len(r.Sent) {
		return 0
	}
	a, b := r.Sent[k], r.Sent[k+1]
	if b <= a {
		return 0
	}
	return unit.RateOf(r.Spec.PktSize, b-a)
}

// Gap returns the receiver-side spacing of pair (k, k+1), or Lost when
// unmeasurable — the quantity IGI's gap model works with.
func (r *Record) Gap(k int) time.Duration {
	if k < 0 || k+1 >= len(r.Recv) {
		return Lost
	}
	a, b := r.Recv[k], r.Recv[k+1]
	if a == Lost || b == Lost {
		return Lost
	}
	return b - a
}

func (r *Record) sentSpan() (first, last time.Duration, n int) {
	if len(r.Sent) == 0 {
		return 0, 0, 0
	}
	return r.Sent[0], r.Sent[len(r.Sent)-1], len(r.Sent)
}

// String summarizes the record for diagnostics.
func (r *Record) String() string {
	return fmt.Sprintf("probe.Record{N=%d L=%dB Ri=%v Ro=%v loss=%d}",
		r.Spec.Count, r.Spec.PktSize, r.InputRate(), r.OutputRate(), r.LossCount())
}
