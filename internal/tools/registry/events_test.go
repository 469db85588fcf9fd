package registry_test

import (
	"context"
	"slices"
	"testing"

	"abw/internal/core"
	"abw/internal/probe"
	"abw/internal/rng"
	"abw/internal/scenario"
	"abw/internal/sim"
	"abw/internal/tools/registry"
)

// TestEventsPerForward pins the event cost of a forwarded packet from
// the simulator's own counters, at seed 1 under one spruce estimate.
// Every hop without a discipline folds its one-hop cross traffic and
// fires no event for it, whatever loss, jitter, capacity schedule or
// buffer bound it has. A probe stream over such hops is batched: it
// fires one event per instant at which a packet arrives or is dropped,
// at most one per probe packet, where the event path fires an
// injection plus a completion and an advance per hop. Probe events per
// forward read 0.002 / 0.045 / 0.017 / 0.042 on verylongpath /
// canonical / lrd / bursty, where the event path read 0.073 / 0.134 /
// 0.051 / 0.127, and 0.045 / 0.045 / 0.072 on the lossy, jittered and
// fading single hops (0.136 / 0.136 / 0.217). random-c keeps one RED
// hop, so its streams take the event path: 0.040. The forwards are
// the event path's, exactly: sim's TestEstimatesFoldIdentically
// compares every link's forwarded count of these very runs with the
// eager oracle's. Where no hop has a discipline they split into the
// folded ones and the probe packets' forwards, and every probe forward
// is batched there. A probe packet that arrives was forwarded by every
// hop and a lost one by none (the one lossy entry is a single hop), so
// the stream records count the probe forwards. The counts are exact,
// so two same-seed runs must agree on them.
func TestEventsPerForward(t *testing.T) {
	estimate := func(t *testing.T, name string) (cpl *scenario.Compiled, forwards, probeForwards int64) {
		sc, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("unknown scenario %q", name)
		}
		cpl, err := sc.CompileSeeded(1)
		if err != nil {
			t.Fatal(err)
		}
		tr := &received{Transport: cpl.Transport}
		if _, err := registry.Estimate(context.Background(), "spruce",
			registry.Params{Capacity: cpl.Capacity, Rand: rng.New(2)}, tr); err != nil {
			t.Fatal(err)
		}
		for _, l := range cpl.Path.Links {
			forwards += l.Forwarded()
		}
		return cpl, forwards, tr.packets * int64(len(cpl.Path.Links))
	}
	for _, tc := range []struct {
		scenario string
		forwards int64
		max      float64
	}{{"verylongpath", 111_987, 0.005}, {"canonical", 4_471, 0.05}, {"lrd", 11_838, 0.02}, {"bursty", 4_726, 0.05},
		{"lossy", 4_427, 0.05}, {"reorder", 4_409, 0.05}, {"fading", 2_763, 0.1}, {"random-c", 113_731, 0.05}} {
		t.Run(tc.scenario, func(t *testing.T) {
			cpl, forwards, probeForwards := estimate(t, tc.scenario)
			st := cpl.Sim.Stats()
			ratio := float64(st.ProbeEvents) / float64(forwards)
			t.Logf("%d events fired for %d forwards, %d of them folded and %d batched: %d probe events, %.3f per forward", st.Fired, forwards, st.Folded, st.Batched, st.ProbeEvents, ratio)
			if forwards != tc.forwards {
				t.Errorf("%d forwards, want the event path's %d", forwards, tc.forwards)
			}
			if ratio > tc.max {
				t.Errorf("%.3f probe events per forward, want at most %.3f", ratio, tc.max)
			}
			if hops := uint64(len(cpl.Path.Links)); st.Batched > 0 && st.ProbeEvents > st.Batched/hops {
				t.Errorf("%d probe events for %d batched probe packets, want at most one each", st.ProbeEvents, st.Batched/hops)
			}
			if again, forwards2, _ := estimate(t, tc.scenario); again.Sim.Stats() != st || forwards2 != forwards {
				t.Errorf("second same-seed run counted %+v for %d forwards, first %+v for %d", again.Sim.Stats(), forwards2, st, forwards)
			}
			if slices.ContainsFunc(cpl.Path.Links, func(l *sim.Link) bool { return l.Discipline() != nil }) {
				return
			}
			if int64(st.Folded)+probeForwards != forwards {
				t.Errorf("%d folded + %d probe forwards = %d, want the %d forwards", st.Folded, probeForwards, int64(st.Folded)+probeForwards, forwards)
			}
			if int64(st.Batched) != probeForwards {
				t.Errorf("%d of %d probe forwards batched, want all", st.Batched, probeForwards)
			}
		})
	}
}

// received is a Transport that counts the probe packets its streams
// deliver.
type received struct {
	core.Transport
	packets int64
}

func (r *received) Probe(spec probe.StreamSpec) (*probe.Record, error) {
	rec, err := r.Transport.Probe(spec)
	if rec != nil {
		for _, at := range rec.Recv {
			if at != probe.Lost {
				r.packets++
			}
		}
	}
	return rec, err
}
