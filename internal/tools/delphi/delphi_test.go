package delphi

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
		t.Error("missing capacity accepted")
	}
	if _, err := New(core.Params{Capacity: 50 * unit.Mbps, StreamLen: 1}); err == nil {
		t.Error("1-packet train accepted")
	}
	if _, err := New(core.Params{Capacity: 50 * unit.Mbps, Repeat: -1}); err == nil {
		t.Error("negative train count accepted")
	}
}

func TestDefaults(t *testing.T) {
	e, err := New(core.Params{Capacity: 50 * unit.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	if e.probeRate() != 37.5*unit.Mbps {
		t.Errorf("probe rate = %v, want 37.5Mbps", e.probeRate())
	}
	if e.pktSize != 1500 || e.trainLen != 100 || e.trains != 20 {
		t.Errorf("defaults wrong: %+v", e)
	}
	if e.Timescale() <= 0 {
		t.Error("Timescale not positive")
	}
}

func TestEstimateCBRExact(t *testing.T) {
	// With CBR cross traffic the fluid model is nearly exact: Delphi
	// must recover A = 25 Mbps tightly.
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR, CrossSize: 200})
	e, err := New(core.Params{Capacity: sc.Capacity, Repeat: 10})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Point.MbpsOf()
	if math.Abs(got-25) > 1.0 {
		t.Errorf("estimate = %.2f Mbps, want ~25", got)
	}
	if rep.Streams != 10 || rep.Packets != 1000 {
		t.Errorf("effort accounting wrong: %+v", rep)
	}
	if len(rep.Samples) != 10 {
		t.Errorf("samples = %d, want 10", len(rep.Samples))
	}
	if rep.Elapsed <= 0 {
		t.Error("elapsed not measured")
	}
}

func TestEstimatePoissonClose(t *testing.T) {
	sc := toolstest.New(toolstest.Options{Model: toolstest.Poisson, Seed: toolstest.Seed(7)})
	e, err := New(core.Params{Capacity: sc.Capacity, Repeat: 20, StreamLen: 200})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Point.MbpsOf()
	// Bursty traffic biases direct probing downward (the paper's sixth
	// misconception); accept a moderate band around truth.
	if got < 17 || got > 28 {
		t.Errorf("estimate = %.2f Mbps, want within [17, 28]", got)
	}
}

func TestBurstyTrafficUnderestimates(t *testing.T) {
	// Pitfall 6 at the tool level: at equal mean avail-bw, the Pareto
	// ON-OFF estimate must not exceed the CBR estimate (burstiness can
	// only bias direct probing downward).
	est := func(m toolstest.Traffic, seed uint64) float64 {
		sc := toolstest.New(toolstest.Options{Model: m, Seed: toolstest.Seed(seed)})
		e, err := New(core.Params{Capacity: sc.Capacity, Repeat: 15})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Point.MbpsOf()
	}
	cbr := est(toolstest.CBR, 3)
	pareto := est(toolstest.ParetoOnOff, 3)
	if pareto > cbr+0.5 {
		t.Errorf("Pareto ON-OFF estimate %.2f above CBR %.2f", pareto, cbr)
	}
}

func TestVariationRangeBounds(t *testing.T) {
	sc := toolstest.New(toolstest.Options{Model: toolstest.Poisson, Seed: toolstest.Seed(11)})
	e, err := New(core.Params{Capacity: sc.Capacity, Repeat: 10})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	if !(rep.Low <= rep.Point && rep.Point <= rep.High) {
		t.Errorf("range ordering violated: %v <= %v <= %v", rep.Low, rep.Point, rep.High)
	}
	if rep.Low < 0 || rep.High > sc.Capacity {
		t.Errorf("range outside physical bounds: [%v, %v]", rep.Low, rep.High)
	}
}
