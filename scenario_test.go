package abw_test

import (
	"context"
	"math"
	"testing"

	"abw"
)

// TestNewScenarioMeasuresAvailBw holds the README's contract that
// sc.AvailBw(hop, t, τ) is the per-hop ground truth: on a scenario from
// NewScenario, by catalog name or by spec, after an estimate has run
// over it the avail-bw of the probed interval answers, inside (0, C].
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

// TestScenarioAvailBwExcludesProbe: the truth an estimate is judged
// against is what the cross traffic leaves, so the probe never counts
// against it. After each estimate, AvailBw over the probed interval
// [0, Elapsed) of the tight link is the spec's C − R, to within 1 bit/s,
// however hard the tool probed. A truth that counts the probe's busy
// time reads 7.25 Mbps after pathload and 3.41 after delphi on
// canonical, and 15.07 after pathload on step.
func TestScenarioAvailBwExcludesProbe(t *testing.T) {
	for _, tc := range []struct {
		scenario, tool string
		want           abw.Rate
	}{
		{"canonical", "pathload", 25 * abw.Mbps},
		{"canonical", "delphi", 25 * abw.Mbps},
		{"step", "pathload", 40 * abw.Mbps},
	} {
		sc, err := abw.NewScenario(tc.scenario)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := abw.Estimate(context.Background(), tc.tool,
			abw.Params{Capacity: sc.Capacity, Rand: abw.NewRand(1)}, sc.Transport)
		if err != nil {
			t.Fatalf("%s on %s: %v", tc.tool, tc.scenario, err)
		}
		if got := sc.AvailBw(sc.TightLink, 0, rep.Elapsed); math.Abs(float64(got-tc.want)) > 1 {
			t.Errorf("%s on %s: AvailBw(%d, 0, %v) = %v, want %v", tc.tool, tc.scenario, sc.TightLink, rep.Elapsed, got, tc.want)
		}
	}
}
