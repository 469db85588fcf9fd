package registry_test

import (
	"context"
	"testing"

	"abw/internal/rng"
	"abw/internal/scenario"
	"abw/internal/sim"
	"abw/internal/tools/registry"
)

// TestEventsPerForward pins the event cost of a forwarded packet from
// the simulator's own counters, at seed 1 under one spruce estimate.
// Every hop of these four scenarios is a plain FIFO, so the links fold
// their one-hop cross traffic and fire no event for it; what is left is
// the probe packets' injections, completions and per-hop advances. They
// read 0.073 / 0.134 / 0.051 / 0.127 on verylongpath / canonical / lrd
// / bursty, where two events a cross packet read 2.002 / 2.045 / 2.017
// / 2.043. The forwards are those of the event path, exactly, and split
// into the folded ones and the probe packets' forwards, which a
// recorded compile (the event path) counts as probe arrivals. The
// counts are exact, so two same-seed runs must agree on them.
func TestEventsPerForward(t *testing.T) {
	estimate := func(t *testing.T, name string, recorded bool) (*scenario.Compiled, int64) {
		sc, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("unknown scenario %q", name)
		}
		sc.Spec.Recorded = recorded
		cpl, err := sc.CompileSeeded(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := registry.Estimate(context.Background(), "spruce",
			registry.Params{Capacity: cpl.Capacity, Rand: rng.New(2)}, cpl.Transport); err != nil {
			t.Fatal(err)
		}
		var forwards int64
		for _, l := range cpl.Path.Links {
			forwards += l.Forwarded()
		}
		return cpl, forwards
	}
	for _, tc := range []struct {
		scenario string
		forwards int64
		max      float64
	}{{"verylongpath", 111_987, 0.1}, {"canonical", 4_471, 0.2}, {"lrd", 11_838, 0.1}, {"bursty", 4_726, 0.2}} {
		t.Run(tc.scenario, func(t *testing.T) {
			cpl, forwards := estimate(t, tc.scenario, false)
			st := cpl.Sim.Stats()
			ratio := float64(st.Fired) / float64(forwards)
			t.Logf("%d events fired for %d forwards, %d of them folded: %.3f per forward", st.Fired, forwards, st.Folded, ratio)
			if forwards != tc.forwards {
				t.Errorf("%d forwards, want the event path's %d", forwards, tc.forwards)
			}
			if ratio > tc.max {
				t.Errorf("%.3f events per forward, want at most %.2f", ratio, tc.max)
			}
			rec, _ := estimate(t, tc.scenario, true)
			var probeForwards int64
			for _, r := range rec.Recorders {
				for _, a := range r.Arrivals() {
					if a.Kind != sim.KindCross {
						probeForwards++
					}
				}
			}
			if int64(st.Folded)+probeForwards != forwards {
				t.Errorf("%d folded + %d probe forwards = %d, want the %d forwards", st.Folded, probeForwards, int64(st.Folded)+probeForwards, forwards)
			}
			if again, forwards2 := estimate(t, tc.scenario, false); again.Sim.Stats() != st || forwards2 != forwards {
				t.Errorf("second same-seed run counted %+v for %d forwards, first %+v for %d", again.Sim.Stats(), forwards2, st, forwards)
			}
		})
	}
}
