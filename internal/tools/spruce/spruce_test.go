package spruce

import (
	"context"
	"math"
	"testing"

	"abw/internal/core"
	"abw/internal/rng"
	"abw/internal/tools/toolstest"
	"abw/internal/unit"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(core.Params{Rand: rng.New(1)}); err == nil {
		t.Error("missing capacity accepted")
	}
	if _, err := New(core.Params{Capacity: 50 * unit.Mbps}); err == nil {
		t.Error("missing rand accepted")
	}
	if _, err := New(core.Params{Capacity: 50 * unit.Mbps, Rand: rng.New(1), Repeat: -5}); err == nil {
		t.Error("negative pairs accepted")
	}
}

func TestDefaults(t *testing.T) {
	e, err := New(core.Params{Capacity: 50 * unit.Mbps, Rand: rng.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	if e.pairs != 100 || e.pktSize != 1500 {
		t.Errorf("defaults wrong: %+v", e)
	}
}

func TestEstimateCBR(t *testing.T) {
	// CBR with small packets approximates fluid: Spruce's gap model
	// should land near A = 25 Mbps.
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR, CrossSize: 200})
	e, err := New(core.Params{Capacity: sc.Capacity, Rand: rng.New(2), Repeat: 100})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Point.MbpsOf()
	if math.Abs(got-25) > 3 {
		t.Errorf("estimate = %.2f Mbps, want ~25", got)
	}
	if len(rep.Samples) != 100 {
		t.Errorf("samples = %d, want 100", len(rep.Samples))
	}
	if rep.Streams != 4 {
		t.Errorf("streams = %d, want 4 (100 pairs / 25 per batch)", rep.Streams)
	}
}

func TestEstimatePoisson(t *testing.T) {
	sc := toolstest.New(toolstest.Options{Model: toolstest.Poisson, Seed: toolstest.Seed(5)})
	e, err := New(core.Params{Capacity: sc.Capacity, Rand: rng.New(3), Repeat: 200})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Point.MbpsOf()
	if got < 15 || got > 32 {
		t.Errorf("estimate = %.2f Mbps, want within [15, 32]", got)
	}
}

func TestPairQuantizationWithLargeCrossPackets(t *testing.T) {
	// Table 1's mechanism at the tool level: with 1500 B cross packets,
	// per-pair samples are coarsely quantized, so their spread is wider
	// than with 40 B packets at the same mean rate.
	spread := func(size int, seed uint64) float64 {
		sc := toolstest.New(toolstest.Options{Model: toolstest.Poisson, CrossSize: size, Seed: toolstest.Seed(seed)})
		e, err := New(core.Params{Capacity: sc.Capacity, Rand: rng.New(seed), Repeat: 150})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
		if err != nil {
			t.Fatal(err)
		}
		var mean float64
		for _, s := range rep.Samples {
			mean += s.MbpsOf()
		}
		mean /= float64(len(rep.Samples))
		var v float64
		for _, s := range rep.Samples {
			d := s.MbpsOf() - mean
			v += d * d
		}
		return math.Sqrt(v / float64(len(rep.Samples)-1))
	}
	small := spread(40, 11)
	large := spread(1500, 11)
	if large <= small {
		t.Errorf("pair-sample spread should grow with cross packet size: 40B→%.2f 1500B→%.2f", small, large)
	}
}

func TestSamplesClampedToPhysicalRange(t *testing.T) {
	sc := toolstest.New(toolstest.Options{Model: toolstest.ParetoOnOff, Seed: toolstest.Seed(13)})
	e, err := New(core.Params{Capacity: sc.Capacity, Rand: rng.New(7), Repeat: 150})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Samples {
		if s < 0 || s > sc.Capacity {
			t.Fatalf("sample %v outside [0, capacity]", s)
		}
	}
}
