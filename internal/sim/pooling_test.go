package sim_test

import (
	"reflect"
	"testing"
	"time"

	"abw/internal/probe"
	"abw/internal/scenario"
	"abw/internal/sim"
	"abw/internal/unit"
)

// TestPooledRunBitIdenticalToUnpooled is the pooling safety property:
// event and packet reuse must never change scheduling order or packet
// contents. Two compilations of the same seeded scenario — one with the
// free lists disabled — with every feed on the event path
// (SetEagerFeeds), so that every cross packet is a pooled packet and
// its events pooled events, must show the same counters on every link
// at every millisecond, and fire the same events. The mice rows cover
// TCP, whose segments and ACKs come from the pool too.
func TestPooledRunBitIdenticalToUnpooled(t *testing.T) {
	defer sim.SetEagerFeeds(sim.SetEagerFeeds(true))
	const horizon = 3 * time.Second
	for _, name := range []string{"canonical", "lrd", "mice", "codel-mice"} {
		t.Run(name, func(t *testing.T) {
			d, ok := scenario.Lookup(name)
			if !ok {
				t.Fatalf("scenario %q not in catalog", name)
			}
			run := func(pooled bool) ([]linkState, sim.Stats) {
				cpl, err := d.CompileSeeded(1)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				cpl.Sim.SetPooling(pooled)
				links := cpl.Path.Links
				if cpl.Reverse != nil {
					links = append(links[:len(links):len(links)], cpl.Reverse)
				}
				var states []linkState
				for at := time.Millisecond; at <= horizon; at += time.Millisecond {
					cpl.Sim.RunUntil(at)
					for _, l := range links {
						states = append(states, stateOf(l))
					}
				}
				return states, cpl.Sim.Stats()
			}
			pooled, pooledStats := run(true)
			plain, plainStats := run(false)
			if pooledStats.Folded != 0 || plainStats.Folded != 0 {
				t.Fatalf("the eager runs folded %d / %d packets", pooledStats.Folded, plainStats.Folded)
			}
			if pooledStats.Fired != plainStats.Fired || pooledStats.TCPEvents != plainStats.TCPEvents ||
				pooledStats.CrossEvents != plainStats.CrossEvents {
				t.Fatalf("pooled run fired %d events (%d TCP, %d cross), unpooled %d (%d TCP, %d cross)",
					pooledStats.Fired, pooledStats.TCPEvents, pooledStats.CrossEvents,
					plainStats.Fired, plainStats.TCPEvents, plainStats.CrossEvents)
			}
			if pooledStats.CrossEvents+pooledStats.TCPEvents == 0 {
				t.Fatal("no cross-traffic or TCP event fired")
			}
			for i := range plain {
				if pooled[i] != plain[i] {
					n := len(plain) / int(horizon/time.Millisecond)
					t.Fatalf("at %v, link %d: pooled %+v != unpooled %+v",
						time.Duration(i/n+1)*time.Millisecond, i%n, pooled[i], plain[i])
				}
			}
		})
	}
}

// TestFeaturesBitIdenticalUnderPooling extends the pooling safety
// property to the probe-feature layer: the canonical FeatureVector of a
// stream probed through a compiled scenario must be bit-identical
// whether the simulator reuses event/packet memory or allocates fresh —
// the feature dataset (and therefore the learned model's training
// input) cannot depend on a memory optimization.
func TestFeaturesBitIdenticalUnderPooling(t *testing.T) {
	for _, name := range []string{"canonical", "bursty", "lossy"} {
		t.Run(name, func(t *testing.T) {
			d, ok := scenario.Lookup(name)
			if !ok {
				t.Fatalf("scenario %q not in catalog", name)
			}
			probeOnce := func(pooled bool) []probe.FeatureVector {
				cpl, err := d.CompileSeeded(1)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				cpl.Sim.SetPooling(pooled)
				var out []probe.FeatureVector
				for _, frac := range []float64{0.5, 0.9} {
					rate := unit.Rate(float64(cpl.Capacity) * frac)
					rec, err := cpl.Transport.Probe(probe.Periodic(rate, 1000, 50))
					if err != nil {
						t.Fatalf("probe: %v", err)
					}
					out = append(out, probe.ExtractFeatures(rec))
				}
				return out
			}
			pooled := probeOnce(true)
			plain := probeOnce(false)
			if !reflect.DeepEqual(pooled, plain) {
				t.Errorf("features differ with pooling on/off:\n  pooled: %+v\n  plain:  %+v", pooled, plain)
			}
		})
	}
}
