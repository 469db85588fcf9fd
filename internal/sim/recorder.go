package sim

import (
	"fmt"
	"sort"
	"time"

	"abw/internal/unit"
)

// Arrival is one packet arrival observed at a link input.
type Arrival struct {
	At   time.Duration
	Size unit.Bytes
	Kind Kind
}

// Interval is a half-open busy period [Start, End) of a link transmitter.
type Interval struct {
	Start, End time.Duration
}

// Recorder captures the ground truth needed to compute the paper's
// Equations (1)–(3) exactly after a run: every arrival at the link input
// and every transmitter busy interval. Experiments attach a Recorder to
// the tight link and derive the population avail-bw process from it.
//
// Arrivals and merged busy intervals are each paired with an index —
// cumulative busy-time prefix sums and the time-sorted arrival offsets —
// so Utilization, AvailBw and ArrivalRate answer with O(log n) binary
// searches instead of scans from the head of history.
type Recorder struct {
	Capacity unit.Rate

	arrivals []Arrival
	busy     []Interval
	// cum[i] is the total busy time through busy[i] (inclusive): the
	// prefix-sum index behind the O(log n) utilization queries.
	cum   []time.Duration
	drops int64

	// capSteps, when set, is the link's piecewise-constant capacity
	// profile: AvailBw switches from C·(1−u) to the exact time-varying
	// form, backed by cumCap — the prefix sums of ∫C(s)ds in bits over
	// the busy intervals.
	capSteps []CapacityStep
	cumCap   []float64
}

// NewRecorder returns a recorder for a link of the given capacity.
func NewRecorder(capacity unit.Rate) *Recorder {
	return &Recorder{Capacity: capacity}
}

// SetCapacitySchedule tells the recorder the link's capacity is the
// given piecewise-constant profile rather than the fixed Capacity.
// AvailBw then evaluates the time-varying form of the paper's Equation
// (2) exactly:
//
//	A(t, t+τ) = (1/τ)·(∫C(s)ds − ∫_busy C(s)ds) over [t, t+τ)
//
// which reduces to C·(1−u) when C is constant. Install it before the
// run, with the same steps handed to Link.SetCapacitySchedule; it
// panics on an invalid schedule (ValidateCapacitySteps) or after
// recording has started. Capacity is reset to the profile's first rate
// (callers wanting the long-run mean can use MeanCapacity).
func (r *Recorder) SetCapacitySchedule(steps []CapacityStep) {
	if err := ValidateCapacitySteps(steps); err != nil {
		panic(err)
	}
	if len(r.busy) > 0 || len(r.arrivals) > 0 {
		panic("sim: capacity schedule installed after recording started")
	}
	own := make([]CapacityStep, len(steps))
	copy(own, steps)
	r.capSteps = own
	r.Capacity = own[0].Rate
}

func (r *Recorder) arrival(at time.Duration, p *Packet) {
	r.arrivals = append(r.arrivals, Arrival{At: at, Size: p.Size, Kind: p.Kind})
}

func (r *Recorder) drop(time.Duration, *Packet) { r.drops++ }

func (r *Recorder) busyInterval(start, end time.Duration) {
	// Merge with the previous interval when transmissions are
	// back-to-back, keeping the slice compact during congested periods.
	if n := len(r.busy); n > 0 && r.busy[n-1].End == start {
		r.busy[n-1].End = end
		r.cum[n-1] += end - start
		if r.capSteps != nil {
			r.cumCap[n-1] += capIntegralBits(r.capSteps, start, end)
		}
		return
	}
	var base time.Duration
	if n := len(r.cum); n > 0 {
		base = r.cum[n-1]
	}
	r.busy = append(r.busy, Interval{Start: start, End: end})
	r.cum = append(r.cum, base+(end-start))
	if r.capSteps != nil {
		var capBase float64
		if n := len(r.cumCap); n > 0 {
			capBase = r.cumCap[n-1]
		}
		r.cumCap = append(r.cumCap, capBase+capIntegralBits(r.capSteps, start, end))
	}
}

// Arrivals returns the recorded arrivals (shared slice; treat as
// read-only).
func (r *Recorder) Arrivals() []Arrival { return r.arrivals }

// BusyIntervals returns the recorded busy intervals (shared slice; treat
// as read-only).
func (r *Recorder) BusyIntervals() []Interval { return r.busy }

// Drops returns the number of recorded drops.
func (r *Recorder) Drops() int64 { return r.drops }

// Reset clears the recorded history, keeping the capacity. The
// backing storage is detached, not truncated: slices previously handed
// out by Arrivals/BusyIntervals keep their contents instead of being
// silently overwritten by post-Reset recording.
func (r *Recorder) Reset() {
	r.arrivals = nil
	r.busy = nil
	r.cum = nil
	r.cumCap = nil
	r.drops = 0
}

// busyTime returns the transmitter's total busy time within [from, to).
func (r *Recorder) busyTime(from, to time.Duration) time.Duration {
	n := len(r.busy)
	// First interval ending after the window opens, first interval
	// starting at/after it closes: everything in between overlaps.
	i0 := sort.Search(n, func(i int) bool { return r.busy[i].End > from })
	i1 := sort.Search(n, func(i int) bool { return r.busy[i].Start >= to })
	if i0 >= i1 {
		return 0
	}
	total := r.cum[i1-1]
	if i0 > 0 {
		total -= r.cum[i0-1]
	}
	if s := r.busy[i0].Start; s < from {
		total -= from - s
	}
	if e := r.busy[i1-1].End; e > to {
		total -= e - to
	}
	return total
}

// Utilization returns u(from, from+window): the fraction of the window
// during which the transmitter was busy (paper Equation 1). It panics on
// a non-positive window.
func (r *Recorder) Utilization(from time.Duration, window time.Duration) float64 {
	if window <= 0 {
		panic(fmt.Sprintf("sim: utilization window %v must be positive", window))
	}
	return float64(r.busyTime(from, from+window)) / float64(window)
}

// AvailBw returns A(from, from+window) = C·(1−u) per paper Equation (2).
// Under a capacity schedule (SetCapacitySchedule) it evaluates the exact
// time-varying generalization instead: the capacity integral over the
// window minus the capacity integral over the window's busy time, per
// unit time.
func (r *Recorder) AvailBw(from, window time.Duration) unit.Rate {
	if r.capSteps == nil {
		return r.Capacity * unit.Rate(1-r.Utilization(from, window))
	}
	if window <= 0 {
		panic(fmt.Sprintf("sim: avail-bw window %v must be positive", window))
	}
	free := capIntegralBits(r.capSteps, from, from+window) - r.busyCapBits(from, from+window)
	if free < 0 {
		// Guard against float round-off at saturated windows.
		free = 0
	}
	return unit.Rate(free / window.Seconds())
}

// busyCapBits returns ∫C(s)ds in bits over the busy time within
// [from, to) — only meaningful under a capacity schedule.
func (r *Recorder) busyCapBits(from, to time.Duration) float64 {
	n := len(r.busy)
	i0 := sort.Search(n, func(i int) bool { return r.busy[i].End > from })
	i1 := sort.Search(n, func(i int) bool { return r.busy[i].Start >= to })
	if i0 >= i1 {
		return 0
	}
	total := r.cumCap[i1-1]
	if i0 > 0 {
		total -= r.cumCap[i0-1]
	}
	if s := r.busy[i0].Start; s < from {
		total -= capIntegralBits(r.capSteps, s, from)
	}
	if e := r.busy[i1-1].End; e > to {
		total -= capIntegralBits(r.capSteps, to, e)
	}
	return total
}

// AvailBwSeries samples the avail-bw process A_τ(t) on consecutive
// windows of length tau covering [from, to), i.e. the series the paper
// plots in Figure 6. Windows that would extend past to are omitted.
func (r *Recorder) AvailBwSeries(from, to, tau time.Duration) []unit.Rate {
	if tau <= 0 {
		panic(fmt.Sprintf("sim: tau %v must be positive", tau))
	}
	var out []unit.Rate
	for t := from; t+tau <= to; t += tau {
		out = append(out, r.AvailBw(t, tau))
	}
	return out
}

// ArrivalRate returns the average arrival rate of packets matching keep
// (nil = all kinds) over [from, from+window). This is the fluid-view
// cross-traffic rate R_c; in a stable (non-overloaded) window it agrees
// with C·u up to edge effects, and tests assert that agreement.
func (r *Recorder) ArrivalRate(from, window time.Duration, keep func(Kind) bool) unit.Rate {
	if window <= 0 {
		panic(fmt.Sprintf("sim: arrival-rate window %v must be positive", window))
	}
	to := from + window
	// Arrivals are recorded in nondecreasing time order, so the window
	// is a contiguous run found by binary search.
	n := len(r.arrivals)
	lo := sort.Search(n, func(i int) bool { return r.arrivals[i].At >= from })
	hi := sort.Search(n, func(i int) bool { return r.arrivals[i].At >= to })
	var bytes unit.Bytes
	for _, a := range r.arrivals[lo:hi] {
		if keep == nil || keep(a.Kind) {
			bytes += a.Size
		}
	}
	return unit.RateOf(bytes, window)
}

// CrossOnly is a keep filter selecting cross traffic.
func CrossOnly(k Kind) bool { return k == KindCross }
