package registry_test

import (
	"context"
	"reflect"
	"testing"

	"abw/internal/core"
	"abw/internal/rng"
	"abw/internal/scenario"
	"abw/internal/tools/registry"
)

// TestUnrecordedCompileEstimatesIdentically pins what lets a compile
// record nothing unless its spec asks: a recorder only observes, so
// every end-to-end tool returns the same report — estimate, range,
// probing effort, samples, elapsed virtual time — on the default
// (unrecorded) compile and on a Spec.Recorded compile of one scenario.
// A recorder also keeps its link on the event path, so on every hop
// this compares the folded cross traffic of the default
// compile with the eager one of the recorded compile. The scenarios are
// the golden test's four plus one with a capacity schedule, whose
// install has a recorder half that only a recorded compile runs.
func TestUnrecordedCompileEstimatesIdentically(t *testing.T) {
	estimate := func(t *testing.T, tool string, cpl *scenario.Compiled) *core.Report {
		rep, err := registry.Estimate(context.Background(), tool,
			registry.Params{Capacity: cpl.Capacity, Rand: rng.New(2)}, cpl.Transport)
		if err != nil {
			t.Fatalf("%s: %v", tool, err)
		}
		return rep
	}
	for _, name := range []string{"canonical", "lrd", "mice", "verylongpath", "fading"} {
		sc, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("unknown scenario %q", name)
		}
		withRecorders := sc
		withRecorders.Spec.Recorded = true
		for _, d := range registry.Tools() {
			if d.SimOnly {
				continue
			}
			tool := d.Name
			t.Run(name+"/"+tool, func(t *testing.T) {
				t.Parallel()
				bare, err := sc.CompileSeeded(1)
				if err != nil {
					t.Fatal(err)
				}
				recorded, err := withRecorders.CompileSeeded(1)
				if err != nil {
					t.Fatal(err)
				}
				if bare.Recorders != nil {
					t.Errorf("default compile has %d recorders", len(bare.Recorders))
				}
				for h, l := range bare.Path.Links {
					if l.Recorder() != nil {
						t.Errorf("default compile: hop %d link has a recorder", h)
					}
				}
				if len(recorded.Recorders) != len(recorded.Path.Links) {
					t.Errorf("recorded compile has %d recorders for %d hops", len(recorded.Recorders), len(recorded.Path.Links))
				}
				for h, l := range recorded.Path.Links {
					if l.Recorder() == nil {
						t.Errorf("recorded compile: hop %d link has no recorder", h)
					}
				}
				if bare.TrueAvailBw != recorded.TrueAvailBw || bare.Capacity != recorded.Capacity {
					t.Errorf("analytic truth differs: unrecorded A=%v C=%v, recorded A=%v C=%v",
						bare.TrueAvailBw, bare.Capacity, recorded.TrueAvailBw, recorded.Capacity)
				}
				want, got := estimate(t, tool, recorded), estimate(t, tool, bare)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("reports differ:\n unrecorded %+v\n recorded   %+v", got, want)
				}
				// mice's only source is TCP: it has no traffic to fold.
				// fading's hop folds under its capacity schedule.
				foldable := sc.Name != "mice"
				if n := bare.Sim.Stats().Folded; foldable != (n > 0) {
					t.Errorf("the default compile folded %d packets", n)
				}
				if n := recorded.Sim.Stats().Folded; n != 0 {
					t.Errorf("the recorded compile folded %d packets", n)
				}
			})
		}
	}
}
