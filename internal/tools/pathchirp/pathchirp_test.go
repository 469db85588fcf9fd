package pathchirp

import (
	"context"
	"testing"

	"abw/internal/core"
	"abw/internal/stats"
	"abw/internal/tools/toolstest"
	"abw/internal/unit"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(core.Params{}); err == nil {
		t.Error("missing rates accepted")
	}
	if _, err := New(core.Params{RateLo: 40 * unit.Mbps, RateHi: 5 * unit.Mbps}); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := New(core.Params{RateLo: 5 * unit.Mbps, RateHi: 45 * unit.Mbps, StreamLen: 2}); err == nil {
		t.Error("2-packet chirp accepted")
	}
	if _, err := New(core.Params{RateLo: 5 * unit.Mbps, RateHi: 45 * unit.Mbps, Repeat: -1}); err == nil {
		t.Error("negative chirps accepted")
	}
}

func TestEstimateCBR(t *testing.T) {
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR, CrossSize: 200})
	e, err := New(core.Params{RateLo: 5 * unit.Mbps, RateHi: 48 * unit.Mbps, StreamLen: 25, Repeat: 16})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Point.MbpsOf()
	// Chirps probe each rate with a single pair, so the per-chirp
	// estimates are coarse; require the right neighborhood.
	if got < 15 || got > 35 {
		t.Errorf("pathchirp estimate = %.2f Mbps, want within [15, 35]", got)
	}
	if rep.Streams != 16 || rep.Packets != 16*25 {
		t.Errorf("effort accounting wrong: %+v", rep)
	}
}

func TestEstimatePoissonPlausible(t *testing.T) {
	sc := toolstest.New(toolstest.Options{Model: toolstest.Poisson, Seed: toolstest.Seed(21)})
	e, err := New(core.Params{RateLo: 5 * unit.Mbps, RateHi: 48 * unit.Mbps, StreamLen: 25, Repeat: 20})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Point.MbpsOf()
	if got <= 5 || got >= 48 {
		t.Errorf("pathchirp estimate = %.2f Mbps stuck at a sweep boundary", got)
	}
}

func TestIdlePathEstimatesTopRate(t *testing.T) {
	// No cross traffic: chirps never durably queue, so the estimate must
	// sit at the top of the chirp range.
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR, CrossRate: 1 * unit.Mbps, CrossSize: 64})
	e, err := New(core.Params{RateLo: 5 * unit.Mbps, RateHi: 40 * unit.Mbps, StreamLen: 20, Repeat: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Point.MbpsOf() < 30 {
		t.Errorf("nearly idle path: estimate = %.2f Mbps, want near 40", rep.Point.MbpsOf())
	}
}

func TestChirpEfficiency(t *testing.T) {
	// The paper's classification point: one chirp of N packets probes
	// N−1 rates. Verify the probing budget reflects that efficiency —
	// pathChirp covers the sweep with far fewer packets than a
	// per-rate-train design would need.
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR, CrossSize: 200})
	e, err := New(core.Params{RateLo: 5 * unit.Mbps, RateHi: 48 * unit.Mbps, StreamLen: 30, Repeat: 10})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	ratesProbed := rep.Streams * 29
	if rep.Packets >= ratesProbed*10 {
		t.Errorf("chirps should probe ~1 rate per packet: %d packets for %d rates", rep.Packets, ratesProbed)
	}
}

// legacyMedianOf is the private median pathChirp carried before the
// shared feature layer; kept here as the equivalence reference.
func legacyMedianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	for i := 1; i < len(tmp); i++ {
		for j := i; j > 0 && tmp[j] < tmp[j-1]; j-- {
			tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
		}
	}
	if len(tmp)%2 == 1 {
		return tmp[len(tmp)/2]
	}
	return (tmp[len(tmp)/2-1] + tmp[len(tmp)/2]) / 2
}

// TestMedianEquivalence pins the migration onto the canonical
// stats.Median: for every non-empty input (pathChirp never takes the
// median of fewer than two steps) the shared median is bit-identical to
// the legacy private copy.
func TestMedianEquivalence(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
	}{
		{"odd", []float64{3, 1, 2}},
		{"even", []float64{4, 1, 3, 2}},
		{"two", []float64{7e-6, 3e-6}},
		{"ties", []float64{1, 1, 1, 1, 1}},
		{"negatives", []float64{-2, 5, -9, 0.5}},
		{"typicalSteps", []float64{1.2e-5, 0, 3.4e-6, 9.9e-4, 2.1e-5, 0, 8e-7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := legacyMedianOf(tc.xs)
			if got := stats.Median(tc.xs); got != want {
				t.Errorf("stats.Median = %g, legacy medianOf = %g", got, want)
			}
		})
	}
}
