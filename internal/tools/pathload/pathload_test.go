package pathload

import (
	"context"
	"testing"

	"abw/internal/core"
	"abw/internal/tools/toolstest"
	"abw/internal/unit"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(core.Params{}); err == nil {
		t.Error("missing rates accepted")
	}
	if _, err := New(core.Params{RateLo: 45 * unit.Mbps, RateHi: 5 * unit.Mbps}); err == nil {
		t.Error("inverted bracket accepted")
	}
	if _, err := New(core.Params{RateLo: 5 * unit.Mbps, RateHi: 45 * unit.Mbps, StreamLen: 4}); err == nil {
		t.Error("too-short stream accepted")
	}
}

func TestEstimateCBRConvergesToAvailBw(t *testing.T) {
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR, CrossSize: 200})
	e, err := New(core.Params{
		RateLo: 2 * unit.Mbps, RateHi: 48 * unit.Mbps,
		Repeat: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	// CBR: the avail-bw process is constant at 25 Mbps; the final range
	// must contain it and the point estimate must be close.
	if rep.Low > 25*unit.Mbps || rep.High < 25*unit.Mbps {
		t.Errorf("range [%v, %v] does not contain 25Mbps", rep.Low, rep.High)
	}
	got := rep.Point.MbpsOf()
	if got < 20 || got > 30 {
		t.Errorf("point estimate = %.2f Mbps, want within [20, 30]", got)
	}
}

func TestEstimateReportsVariationRange(t *testing.T) {
	// With bursty traffic Pathload should return a nontrivial range
	// (Low < High) — the Figure 6 fallacy is that people expect a point.
	sc := toolstest.New(toolstest.Options{Model: toolstest.ParetoOnOff, Seed: toolstest.Seed(9)})
	e, err := New(core.Params{
		RateLo: 2 * unit.Mbps, RateHi: 48 * unit.Mbps,
		Repeat: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Low >= rep.High {
		t.Errorf("degenerate range [%v, %v] under bursty traffic", rep.Low, rep.High)
	}
	if rep.Low < 0 || rep.High > 50*unit.Mbps {
		t.Errorf("range outside physical bounds: [%v, %v]", rep.Low, rep.High)
	}
	// The true mean avail-bw (25 Mbps) should fall inside or near the
	// reported variation range.
	if rep.High < 15*unit.Mbps || rep.Low > 35*unit.Mbps {
		t.Errorf("range [%v, %v] implausibly far from A=25Mbps", rep.Low, rep.High)
	}
}

func TestEstimateUsesNoCapacity(t *testing.T) {
	// Defining property of iterative probing: no C_t input needed, no
	// capacity estimate produced.
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR})
	e, err := New(core.Params{RateLo: 2 * unit.Mbps, RateHi: 48 * unit.Mbps, Repeat: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Capacity != 0 {
		t.Error("pathload should not report a capacity estimate")
	}
	if rep.Samples != nil {
		t.Error("iterative probing must not claim avail-bw samples")
	}
}

func TestEffortAccounting(t *testing.T) {
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR})
	e, err := New(core.Params{RateLo: 2 * unit.Mbps, RateHi: 48 * unit.Mbps, Repeat: 2, MaxRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Streams == 0 || rep.Packets != rep.Streams*100 {
		t.Errorf("effort accounting wrong: %d streams, %d packets", rep.Streams, rep.Packets)
	}
	if rep.ProbeBytes != unit.Bytes(rep.Packets)*1500 {
		t.Errorf("probe bytes = %d, want %d", rep.ProbeBytes, rep.Packets*1500)
	}
	if rep.Elapsed <= 0 {
		t.Error("elapsed not measured")
	}
}
