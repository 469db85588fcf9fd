package bfind

import (
	"context"
	"testing"
	"time"

	"abw/internal/core"
	"abw/internal/probe"
	"abw/internal/tools/toolstest"
	"abw/internal/unit"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing MaxRate accepted")
	}
	if _, err := New(Config{MaxRate: 40 * unit.Mbps, StartRate: 50 * unit.Mbps}); err == nil {
		t.Error("StartRate above MaxRate accepted")
	}
	if _, err := New(Config{MaxRate: 40 * unit.Mbps, LoadPktSize: -1500}); err == nil {
		t.Error("negative LoadPktSize accepted")
	}
}

func TestRequiresSimTransport(t *testing.T) {
	e, err := New(Config{MaxRate: 40 * unit.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate(context.Background(), fakeTransport{}); err == nil {
		t.Error("non-sim transport accepted")
	}
}

type fakeTransport struct{}

func (fakeTransport) Probe(probe.StreamSpec) (*probe.Record, error) { return nil, nil }
func (fakeTransport) Now() time.Duration                            { return 0 }

func TestEstimateSingleHop(t *testing.T) {
	// BFind needs finite buffers to see persistent queue growth turn
	// into delay; unbounded buffers also work since delay just grows.
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR, CrossSize: 500})
	e, err := New(Config{StartRate: 10 * unit.Mbps, MaxRate: 48 * unit.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Estimate(context.Background(), sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Point.MbpsOf()
	// Ramp quantization is ±rampStep (2 Mbps); accept the 25±7.5 band.
	if got < 17.5 || got > 32.5 {
		t.Errorf("bfind estimate = %.2f Mbps, want ~25±7.5", got)
	}
}

func TestEstimateIdentifiesCeilingMiss(t *testing.T) {
	// Ramp ceiling below the avail-bw: BFind must report the miss as an
	// error while still returning its partial report.
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR, CrossSize: 500})
	e, err := New(Config{StartRate: 2 * unit.Mbps, MaxRate: 10 * unit.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Estimate(context.Background(), sc.Transport)
	if err == nil {
		t.Error("expected ceiling-miss error")
	}
	if rep == nil || rep.Point != 10*unit.Mbps {
		t.Errorf("partial report should carry the ceiling: %+v", rep)
	}
}

func TestEstimateMultiHopFindsTightHop(t *testing.T) {
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR, CrossSize: 500, Hops: 3})
	e, err := New(Config{StartRate: 10 * unit.Mbps, MaxRate: 48 * unit.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Estimate(context.Background(), sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Point.MbpsOf()
	if got < 15 || got > 35 {
		t.Errorf("bfind multi-hop estimate = %.2f Mbps, want ~25", got)
	}
	_ = core.Report{} // keep core import for the interface assertion below
	var _ core.Estimator = e
}
