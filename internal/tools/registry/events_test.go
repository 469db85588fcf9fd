package registry_test

import (
	"context"
	"testing"

	"abw/internal/rng"
	"abw/internal/scenario"
	"abw/internal/tools/registry"
)

// TestEventsPerForward pins the event cost of a forwarded packet from
// the simulator's own counters, at seed 1 under one spruce estimate:
// a cross-traffic packet on its one-hop route is its feed's event plus
// the link's txDone, whatever the model, and the probe packets'
// per-hop advances add a little on top. They read 2.002 / 2.045 /
// 2.017 / 2.043 on verylongpath / canonical / lrd / bursty; a
// ParetoOnOff source that lays each burst down as one Inject event a
// packet read 2.214 on bursty. The count is exact, so two same-seed
// runs must agree on it.
func TestEventsPerForward(t *testing.T) {
	count := func(t *testing.T, name string) (fired uint64, forwards int64) {
		sc, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("unknown scenario %q", name)
		}
		cpl, err := sc.CompileSeeded(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := registry.Estimate(context.Background(), "spruce",
			registry.Params{Capacity: cpl.Capacity, Rand: rng.New(2)}, cpl.Transport); err != nil {
			t.Fatal(err)
		}
		for _, l := range cpl.Path.Links {
			forwards += l.Forwarded()
		}
		return cpl.Sim.Stats().Fired, forwards
	}
	for _, tc := range []struct {
		scenario string
		max      float64
	}{{"verylongpath", 2.1}, {"canonical", 2.1}, {"lrd", 2.3}, {"bursty", 2.15}} {
		t.Run(tc.scenario, func(t *testing.T) {
			fired, forwards := count(t, tc.scenario)
			if forwards < 4_000 {
				t.Fatalf("only %d forwards: the estimate did not run the simulator", forwards)
			}
			ratio := float64(fired) / float64(forwards)
			t.Logf("%d events fired for %d forwards: %.3f per forward", fired, forwards, ratio)
			if ratio > tc.max {
				t.Errorf("%.3f events per forward, want at most %.2f", ratio, tc.max)
			}
			if fired2, forwards2 := count(t, tc.scenario); fired2 != fired || forwards2 != forwards {
				t.Errorf("second same-seed run fired %d events for %d forwards, first %d for %d", fired2, forwards2, fired, forwards)
			}
		})
	}
}
