package igi

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"abw/internal/core"
	"abw/internal/tools/toolstest"
	"abw/internal/unit"
)

func TestConfigValidation(t *testing.T) {
	if _, err := NewIGI(core.Params{}); err == nil {
		t.Error("IGI without capacity accepted")
	}
	if _, err := NewPTR(core.Params{}); err == nil {
		t.Error("PTR without init rate accepted")
	}
	if _, err := NewPTR(core.Params{RateHi: 50 * unit.Mbps, StreamLen: 2}); err == nil {
		t.Error("too-short train accepted")
	}
}

// TestNames: each mode's errors carry its own name, the one the
// registry lists it under, whether the constructor refuses its Params
// or the run fails mid-search.
func TestNames(t *testing.T) {
	for _, c := range []struct {
		name string
		mode func(core.Params) (*Estimator, error)
	}{{"ptr", NewPTR}, {"igi", NewIGI}} {
		if _, err := c.mode(core.Params{Capacity: 50 * unit.Mbps, StreamLen: 2}); err == nil ||
			!strings.HasPrefix(err.Error(), c.name+": ") {
			t.Errorf("%s with 2-packet trains: err = %v, want it to start %q", c.name, err, c.name+": ")
		}
		e, err := c.mode(core.Params{Capacity: 50 * unit.Mbps})
		if err != nil {
			t.Fatal(err)
		}
		sc := toolstest.New(toolstest.Options{})
		_, err = e.Estimate(core.StartRun(context.Background(), sc.Transport, core.Budget{MaxStreams: 1}, nil))
		if !errors.Is(err, core.ErrBudget) || !strings.HasPrefix(err.Error(), c.name+": ") {
			t.Errorf("%s under a one-stream budget: err = %v, want ErrBudget starting %q", c.name, err, c.name+": ")
		}
	}
}

func TestPTRConvergesCBR(t *testing.T) {
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR, CrossSize: 200})
	e, err := NewPTR(core.Params{RateHi: 50 * unit.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Point.MbpsOf()
	if math.Abs(got-25) > 6 {
		t.Errorf("PTR estimate = %.2f Mbps, want ~25", got)
	}
	if rep.Streams < 2 {
		t.Errorf("PTR should iterate: %d streams", rep.Streams)
	}
}

func TestIGIConvergesCBR(t *testing.T) {
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR, CrossSize: 200})
	e, err := NewIGI(core.Params{Capacity: sc.Capacity})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Point.MbpsOf()
	if math.Abs(got-25) > 6 {
		t.Errorf("IGI estimate = %.2f Mbps, want ~25", got)
	}
}

func TestPTRPoissonPlausible(t *testing.T) {
	sc := toolstest.New(toolstest.Options{Model: toolstest.Poisson, Seed: toolstest.Seed(17)})
	e, err := NewPTR(core.Params{RateHi: 50 * unit.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Point.MbpsOf()
	if got < 12 || got > 33 {
		t.Errorf("PTR estimate under Poisson = %.2f Mbps, want within [12, 33]", got)
	}
}

func TestIGIEstimateClampedNonNegative(t *testing.T) {
	// Heavily bursty traffic must not drive the IGI formula negative.
	sc := toolstest.New(toolstest.Options{Model: toolstest.ParetoOnOff, Seed: toolstest.Seed(23)})
	e, err := NewIGI(core.Params{Capacity: sc.Capacity})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Point < 0 {
		t.Errorf("IGI estimate negative: %v", rep.Point)
	}
}

func TestSixtyPacketDefault(t *testing.T) {
	e, err := NewPTR(core.Params{RateHi: 50 * unit.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	if e.trainLen != 60 {
		t.Errorf("default train length = %d, want 60 (published value)", e.trainLen)
	}
}
