package abw_test

import (
	"context"
	"testing"

	"abw"
)

// TestNewScenarioMeasuresAvailBw holds the README's contract that
// sc.AvailBw(hop, t, τ) is the exact per-hop ground truth: a scenario
// from NewScenario, by catalog name or by spec, records every hop, so
// after an estimate has run over it the measured avail-bw of the probed
// interval answers, inside (0, C].
func TestNewScenarioMeasuresAvailBw(t *testing.T) {
	byName, err := abw.NewScenario("canonical")
	if err != nil {
		t.Fatal(err)
	}
	bySpec, err := abw.NewScenario(abw.ScenarioSpec{Hops: []abw.Hop{{
		Capacity: 50 * abw.Mbps,
		Traffic:  []abw.Source{{Kind: abw.Poisson, Rate: 25 * abw.Mbps}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	for name, sc := range map[string]*abw.Scenario{"name": byName, "spec": bySpec} {
		rep, err := abw.Estimate(context.Background(), "spruce",
			abw.Params{Capacity: sc.Capacity, Rand: abw.NewRand(1)}, sc.Transport)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Elapsed <= 0 {
			t.Fatalf("%s: the estimate consumed no virtual time", name)
		}
		if a := sc.AvailBw(0, 0, rep.Elapsed); a <= 0 || a > sc.Capacity {
			t.Errorf("%s: AvailBw(0, 0, %v) = %v, want inside (0, %v]", name, rep.Elapsed, a, sc.Capacity)
		}
	}
}
