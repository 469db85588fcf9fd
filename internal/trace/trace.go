// Package trace provides the packet-trace substrate standing in for the
// NLANR trace (ANL-1070432720, OC-3 access link of Argonne National
// Laboratory) that the paper's Figures 1 and 6 are computed from.
//
// Since the original trace is not redistributable, the package
// synthesizes traces with the properties those experiments actually use:
// a known link capacity, realistic burstiness, and long-range dependence,
// with the avail-bw process A_τ(t) computable exactly at any timescale.
// The generator is a fractional-Gaussian-noise rate-modulated Poisson
// stream with an exactly controllable Hurst parameter.
package trace

import (
	"fmt"
	"sort"
	"time"

	"abw/internal/rng"
	"abw/internal/unit"
)

// Pkt is one packet arrival in a trace.
type Pkt struct {
	At   time.Duration
	Size unit.Bytes
}

// Trace is a timestamped packet arrival record on a link of known
// capacity — everything needed to compute the paper's Equations (1)–(3)
// in fluid (arrival-rate) form at any averaging timescale.
type Trace struct {
	// Capacity is the link capacity the trace was captured on.
	Capacity unit.Rate
	// Span is the trace duration.
	Span time.Duration

	pkts []Pkt
	// cum[i] is the total bytes of pkts[0:i]; cum has len(pkts)+1
	// entries so window sums are two lookups.
	cum []unit.Bytes
}

// New builds a trace from packets (sorted by time if needed).
func New(capacity unit.Rate, span time.Duration, pkts []Pkt) (*Trace, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("trace: capacity %v must be positive", capacity)
	}
	if span <= 0 {
		return nil, fmt.Errorf("trace: span %v must be positive", span)
	}
	sorted := append([]Pkt(nil), pkts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	for i, p := range sorted {
		if p.At < 0 || p.At > span {
			return nil, fmt.Errorf("trace: packet %d at %v outside [0, %v]", i, p.At, span)
		}
		if p.Size <= 0 {
			return nil, fmt.Errorf("trace: packet %d has size %d", i, p.Size)
		}
	}
	cum := make([]unit.Bytes, len(sorted)+1)
	for i, p := range sorted {
		cum[i+1] = cum[i] + p.Size
	}
	return &Trace{Capacity: capacity, Span: span, pkts: sorted, cum: cum}, nil
}

// Len returns the packet count.
func (t *Trace) Len() int { return len(t.pkts) }

// Packets returns the packet slice (shared; treat as read-only).
func (t *Trace) Packets() []Pkt { return t.pkts }

// BytesIn returns the traffic volume arriving in [from, from+win).
func (t *Trace) BytesIn(from, win time.Duration) unit.Bytes {
	if win <= 0 {
		return 0
	}
	lo := sort.Search(len(t.pkts), func(i int) bool { return t.pkts[i].At >= from })
	hi := sort.Search(len(t.pkts), func(i int) bool { return t.pkts[i].At >= from+win })
	return t.cum[hi] - t.cum[lo]
}

// Rate returns the average arrival rate over [from, from+win).
func (t *Trace) Rate(from, win time.Duration) unit.Rate {
	return unit.RateOf(t.BytesIn(from, win), win)
}

// MeanRate returns the trace's overall average rate.
func (t *Trace) MeanRate() unit.Rate {
	return unit.RateOf(t.cum[len(t.cum)-1], t.Span)
}

// Utilization returns the trace's overall utilization of the link.
func (t *Trace) Utilization() float64 {
	return float64(t.MeanRate()) / float64(t.Capacity)
}

// AvailBw returns A(from, from+win) = C − arrival rate, clamped at 0
// when the instantaneous offered load exceeds capacity (a queueing
// window).
func (t *Trace) AvailBw(from, win time.Duration) unit.Rate {
	a := t.Capacity - t.Rate(from, win)
	if a < 0 {
		return 0
	}
	return a
}

// AvailBwSeries samples A_τ(t) on consecutive windows covering
// [from, to) — the sample path of the paper's Figure 6.
func (t *Trace) AvailBwSeries(from, to, tau time.Duration) []unit.Rate {
	if tau <= 0 {
		panic(fmt.Sprintf("trace: tau %v must be positive", tau))
	}
	var out []unit.Rate
	for at := from; at+tau <= to; at += tau {
		out = append(out, t.AvailBw(at, tau))
	}
	return out
}

// PoissonSample draws k samples of A_τ at Poisson-placed instants over
// the whole trace — the sampling discipline of the paper's Figure 1
// experiment. The mean sampling gap is (Span−τ)/k so the samples spread
// over the trace.
func (t *Trace) PoissonSample(tau time.Duration, k int, r *rng.Rand) ([]unit.Rate, error) {
	if tau <= 0 || tau >= t.Span {
		return nil, fmt.Errorf("trace: tau %v outside (0, span)", tau)
	}
	if k < 1 {
		return nil, fmt.Errorf("trace: need at least one sample")
	}
	if r == nil {
		return nil, fmt.Errorf("trace: PoissonSample needs a random source")
	}
	meanGap := (t.Span - tau).Seconds() / float64(k)
	out := make([]unit.Rate, 0, k)
	at := time.Duration(0)
	for len(out) < k {
		at += time.Duration(r.Exp(meanGap) * 1e9)
		// Wrap around so we always collect exactly k samples even when
		// the exponential gaps overshoot the trace end.
		for at+tau > t.Span {
			at -= t.Span - tau
		}
		out = append(out, t.AvailBw(at, tau))
	}
	return out, nil
}
