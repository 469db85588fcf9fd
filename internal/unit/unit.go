// Package unit defines the physical quantities shared by every other
// package in this module: transmission rates in bits per second, packet
// sizes in bytes, and helpers for converting between them and virtual
// time. Keeping these in one tiny package avoids unit mistakes (bits vs
// bytes, Mbps vs MBps) that would silently corrupt every experiment.
package unit

import (
	"fmt"
	"math"
	"time"
)

// Rate is a data rate in bits per second. The zero value means "no rate"
// and is reported as such by String.
type Rate float64

// Convenient rate constructors.
const (
	BitPerSecond Rate = 1
	Kbps              = 1e3 * BitPerSecond
	Mbps              = 1e6 * BitPerSecond
	Gbps              = 1e9 * BitPerSecond
)

// Well-known link capacities used across the paper's experiments.
const (
	// OC3 is the capacity of an OC-3 link, as in the NLANR/ANL access
	// link the paper's Figures 1 and 6 are derived from.
	OC3 = 155.52 * Mbps
	// FastEthernet is 100 Mbps, the "narrow link" in the tight-vs-narrow
	// pitfall.
	FastEthernet = 100 * Mbps
)

// MbpsOf returns the rate expressed in Mbps as a plain float64, which is
// how the paper reports every rate.
func (r Rate) MbpsOf() float64 { return float64(r) / 1e6 }

// IsValid reports whether the rate is a finite, non-negative number.
func (r Rate) IsValid() bool {
	f := float64(r)
	return f >= 0 && !math.IsInf(f, 0) && !math.IsNaN(f)
}

// String formats the rate with an adaptive unit.
func (r Rate) String() string {
	switch f := float64(r); {
	case f == 0:
		return "0bps"
	case f >= 1e9:
		return fmt.Sprintf("%.3gGbps", f/1e9)
	case f >= 1e6:
		return fmt.Sprintf("%.4gMbps", f/1e6)
	case f >= 1e3:
		return fmt.Sprintf("%.4gKbps", f/1e3)
	default:
		return fmt.Sprintf("%.4gbps", f)
	}
}

// Bytes is a data volume in bytes.
type Bytes int64

// Bits returns the volume in bits.
func (b Bytes) Bits() int64 { return int64(b) * 8 }

// TxTime returns the time needed to transmit b bytes at rate r, rounded
// to the nearest nanosecond. It panics on a non-positive rate because a
// zero-capacity link cannot transmit and such a call is always a
// programming error in the simulator.
func TxTime(b Bytes, r Rate) time.Duration {
	if r <= 0 {
		panic(fmt.Sprintf("unit: TxTime with non-positive rate %v", r))
	}
	sec := float64(b.Bits()) / float64(r)
	return time.Duration(math.Round(sec * 1e9))
}

// RateOf returns the average rate corresponding to b bytes transferred in
// d. A non-positive duration yields 0, so callers can fold degenerate
// measurement windows without special cases.
func RateOf(b Bytes, d time.Duration) Rate {
	if d <= 0 {
		return 0
	}
	return Rate(float64(b.Bits()) / d.Seconds())
}

// BytesIn returns the number of whole bytes a rate r delivers in d.
func BytesIn(r Rate, d time.Duration) Bytes {
	if r <= 0 || d <= 0 {
		return 0
	}
	return Bytes(float64(r) * d.Seconds() / 8)
}

// GapFor returns the inter-packet gap that makes a stream of size-b
// packets average rate r: gap = 8b/r. This is the paper's δ_i = L/R_i.
func GapFor(b Bytes, r Rate) time.Duration {
	return TxTime(b, r)
}
