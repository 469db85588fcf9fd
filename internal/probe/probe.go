// Package probe implements the probing-stream machinery shared by every
// estimation technique: construction of periodic packet trains, packet
// pairs, exponential chirps, and Poisson-spaced pairs, and the
// receiver-side measurements (one-way delays, input/output rates) that
// direct and iterative probing consume.
package probe

import (
	"fmt"
	"math"
	"time"

	"abw/internal/rng"
	"abw/internal/unit"
)

// StreamSpec describes one probing stream. Either Rate (periodic stream)
// or Gaps (arbitrary spacing, e.g. chirps) must be set.
type StreamSpec struct {
	// PktSize is the probing packet size L.
	PktSize unit.Bytes
	// Count is the number of packets N >= 2.
	Count int
	// Rate is the input rate for a periodic stream; ignored when Gaps is
	// non-nil.
	Rate unit.Rate
	// Gaps holds Count-1 explicit interdeparture times for non-periodic
	// streams.
	Gaps []time.Duration
}

// Validate checks internal consistency.
func (sp StreamSpec) Validate() error {
	if sp.PktSize <= 0 {
		return fmt.Errorf("probe: packet size %d must be positive", sp.PktSize)
	}
	if sp.Count < 2 {
		return fmt.Errorf("probe: stream needs at least 2 packets, got %d", sp.Count)
	}
	if sp.Gaps != nil {
		if len(sp.Gaps) != sp.Count-1 {
			return fmt.Errorf("probe: %d gaps for %d packets, want %d", len(sp.Gaps), sp.Count, sp.Count-1)
		}
		for i, g := range sp.Gaps {
			if g <= 0 {
				return fmt.Errorf("probe: gap %d is %v, must be positive", i, g)
			}
		}
		return nil
	}
	if sp.Rate <= 0 {
		return fmt.Errorf("probe: periodic stream needs a positive rate, got %v", sp.Rate)
	}
	return nil
}

// Departures returns the Count send offsets relative to the stream start.
func (sp StreamSpec) Departures() ([]time.Duration, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	out := make([]time.Duration, sp.Count)
	if sp.Gaps != nil {
		for i := 1; i < sp.Count; i++ {
			out[i] = out[i-1] + sp.Gaps[i-1]
		}
		return out, nil
	}
	gap := unit.GapFor(sp.PktSize, sp.Rate)
	for i := 1; i < sp.Count; i++ {
		out[i] = out[i-1] + gap
	}
	return out, nil
}

// Duration returns the stream's send duration (first to last departure),
// the paper's probing-duration knob that controls the averaging
// timescale τ; 0 for an invalid spec. It is Departures()[Count-1]
// without building the slice: integer sums are exact, so gap×(Count−1)
// and the sum of Gaps are that element.
func (sp StreamSpec) Duration() time.Duration {
	if sp.Validate() != nil {
		return 0
	}
	if sp.Gaps == nil {
		return unit.GapFor(sp.PktSize, sp.Rate) * time.Duration(sp.Count-1)
	}
	var d time.Duration
	for _, g := range sp.Gaps {
		d += g
	}
	return d
}

// Bytes returns the total probe volume.
func (sp StreamSpec) Bytes() unit.Bytes { return sp.PktSize * unit.Bytes(sp.Count) }

// Periodic builds a periodic train of count packets of size at rate —
// the stream both Figure 2 and the iterative tools use. The averaging
// timescale is (count-1)·L/rate.
func Periodic(rate unit.Rate, size unit.Bytes, count int) StreamSpec {
	return StreamSpec{PktSize: size, Count: count, Rate: rate}
}

// PeriodicForDuration builds a periodic train whose send duration is
// approximately d: the explicit "probing duration = averaging timescale"
// knob from the paper's second pitfall.
func PeriodicForDuration(rate unit.Rate, size unit.Bytes, d time.Duration) StreamSpec {
	gap := unit.GapFor(size, rate)
	count := int(d/gap) + 1
	if count < 2 {
		count = 2
	}
	return StreamSpec{PktSize: size, Count: count, Rate: rate}
}

// Pair builds a single packet pair at the given rate.
func Pair(rate unit.Rate, size unit.Bytes) StreamSpec {
	return StreamSpec{PktSize: size, Count: 2, Rate: rate}
}

// Chirp builds a pathChirp-style stream: interarrivals shrink
// geometrically by factor gamma > 1, so the N−1 consecutive pairs probe
// N−1 exponentially spaced rates from lo up to hi.
func Chirp(lo, hi unit.Rate, size unit.Bytes, count int, gamma float64) (StreamSpec, error) {
	if count < 3 {
		return StreamSpec{}, fmt.Errorf("probe: chirp needs at least 3 packets")
	}
	if lo <= 0 || hi <= lo {
		return StreamSpec{}, fmt.Errorf("probe: chirp needs 0 < lo < hi (got %v, %v)", lo, hi)
	}
	if gamma <= 1 {
		return StreamSpec{}, fmt.Errorf("probe: chirp spread factor %g must exceed 1", gamma)
	}
	// First gap corresponds to rate lo; gaps shrink by gamma until the
	// last pair reaches hi (count overrides gamma if they disagree, by
	// recomputing gamma to fit exactly).
	n := count - 1
	// gap_k = gap_0 / gamma^k with gap_0 = L/lo and gap_{n-1} = L/hi:
	// gamma_fit = (hi/lo)^{1/(n-1)}.
	gammaFit := gamma
	if n > 1 {
		gammaFit = math.Pow(float64(hi)/float64(lo), 1/float64(n-1))
	}
	gaps := make([]time.Duration, n)
	g := float64(unit.GapFor(size, lo))
	for i := 0; i < n; i++ {
		gaps[i] = time.Duration(g)
		g /= gammaFit
	}
	return StreamSpec{PktSize: size, Count: count, Gaps: gaps}, nil
}

// RateAtPair returns the instantaneous probing rate of pair k (between
// packets k and k+1) for a spec with explicit gaps.
func (sp StreamSpec) RateAtPair(k int) unit.Rate {
	deps, err := sp.Departures()
	if err != nil || k < 0 || k+1 >= len(deps) {
		return 0
	}
	return unit.RateOf(sp.PktSize, deps[k+1]-deps[k])
}

// PoissonPairs builds Spruce-style probing: count packet pairs, each pair
// spaced internally to probe at rate (one tight-link transmission time of
// the probe size), with exponentially distributed inter-pair gaps of the
// given mean, emulating Poisson sampling of the avail-bw process. The
// result is returned as a single StreamSpec with explicit gaps; pair k
// consists of packets 2k and 2k+1.
func PoissonPairs(rate unit.Rate, size unit.Bytes, pairs int, meanSpacing time.Duration, r *rng.Rand) (StreamSpec, error) {
	if pairs < 1 {
		return StreamSpec{}, fmt.Errorf("probe: need at least 1 pair")
	}
	if meanSpacing <= 0 {
		return StreamSpec{}, fmt.Errorf("probe: mean spacing %v must be positive", meanSpacing)
	}
	if r == nil {
		return StreamSpec{}, fmt.Errorf("probe: PoissonPairs needs a random source")
	}
	intra := unit.GapFor(size, rate)
	gaps := make([]time.Duration, 0, 2*pairs-1)
	for k := 0; k < pairs; k++ {
		if k > 0 {
			g := time.Duration(r.Exp(meanSpacing.Seconds()) * 1e9)
			if g < intra {
				g = intra // pairs must not overlap
			}
			gaps = append(gaps, g)
		}
		gaps = append(gaps, intra)
	}
	return StreamSpec{PktSize: size, Count: 2 * pairs, Gaps: gaps}, nil
}
