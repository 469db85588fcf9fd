package topp

import (
	"context"
	"math"
	"testing"

	"abw/internal/core"
	"abw/internal/tools/toolstest"
	"abw/internal/unit"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(core.Params{}); err == nil {
		t.Error("missing rates accepted")
	}
	if _, err := New(core.Params{RateLo: 30 * unit.Mbps, RateHi: 10 * unit.Mbps}); err == nil {
		t.Error("inverted rates accepted")
	}
	if _, err := New(core.Params{RateLo: 5 * unit.Mbps, RateHi: 45 * unit.Mbps, Repeat: -1}); err == nil {
		t.Error("negative pairs accepted")
	}
}

func TestEstimateCBR(t *testing.T) {
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR, CrossSize: 200})
	e, err := New(core.Params{RateLo: 5 * unit.Mbps, RateHi: 45 * unit.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Point.MbpsOf()
	if math.Abs(got-25) > 5 {
		t.Errorf("TOPP estimate = %.2f Mbps, want ~25", got)
	}
	if rep.Streams == 0 || rep.Packets == 0 {
		t.Error("effort not accounted")
	}
}

func TestCapacityEstimate(t *testing.T) {
	// The slope of the overloaded segment recovers C_t — the TOPP
	// feature the paper's classification singles out.
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR, CrossSize: 200})
	e, err := New(core.Params{RateLo: 5 * unit.Mbps, RateHi: 48 * unit.Mbps, Repeat: 30})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Capacity == 0 {
		t.Fatal("no capacity estimate produced")
	}
	got := rep.Capacity.MbpsOf()
	if math.Abs(got-50) > 10 {
		t.Errorf("capacity estimate = %.2f Mbps, want ~50", got)
	}
}

func TestEstimatePoissonUnderestimatesOrClose(t *testing.T) {
	// With bursty traffic TOPP dips below the true avail-bw (the
	// paper's burstiness pitfall applies to iterative probing too): the
	// estimate must not exceed truth by much, and must be positive.
	sc := toolstest.New(toolstest.Options{Model: toolstest.Poisson, Seed: toolstest.Seed(5)})
	e, err := New(core.Params{RateLo: 5 * unit.Mbps, RateHi: 45 * unit.Mbps, Repeat: 30})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Point.MbpsOf()
	if got <= 0 || got > 29 {
		t.Errorf("TOPP estimate = %.2f Mbps, want in (0, 29]", got)
	}
}

func TestAllRoundsOverloadedReportsFloor(t *testing.T) {
	// Sweep entirely above the avail-bw: TOPP must report ~RateLo, not
	// something inside the sweep.
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR, CrossSize: 200})
	e, err := New(core.Params{RateLo: 30 * unit.Mbps, RateHi: 48 * unit.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Point > 33*unit.Mbps {
		t.Errorf("estimate %v should be near the sweep floor when everything overloads", rep.Point)
	}
}

func TestPairTrainStructure(t *testing.T) {
	spec, err := pairTrain(40*unit.Mbps, 1500, 5)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Count != 10 || len(spec.Gaps) != 9 {
		t.Fatalf("pair train shape wrong: %+v", spec)
	}
	intra := unit.GapFor(1500, 40*unit.Mbps)
	for i, g := range spec.Gaps {
		if i%2 == 0 && g != intra {
			t.Errorf("gap %d = %v, want intra %v", i, g, intra)
		}
		if i%2 == 1 && g != 8*intra {
			t.Errorf("gap %d = %v, want inter %v", i, g, 8*intra)
		}
	}
	if _, err := pairTrain(unit.Mbps, 1500, 0); err == nil {
		t.Error("empty train accepted")
	}
}
