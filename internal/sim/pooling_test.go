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

// groundTruth snapshots everything a recorder observed.
type groundTruth struct {
	arrivals []sim.Arrival
	busy     []sim.Interval
	drops    int64
}

func snapshot(recs []*sim.Recorder) []groundTruth {
	out := make([]groundTruth, len(recs))
	for i, r := range recs {
		out[i] = groundTruth{
			arrivals: append([]sim.Arrival(nil), r.Arrivals()...),
			busy:     append([]sim.Interval(nil), r.BusyIntervals()...),
			drops:    r.Drops(),
		}
	}
	return out
}

// TestPooledRunBitIdenticalToUnpooled is the pooling safety property:
// event and packet reuse must never change scheduling order or packet
// contents. Two compilations of the same seeded scenario — one with the
// free lists disabled — must produce exactly the same per-hop ground
// truth, arrival by arrival, and fire the same events. The mice rows
// cover TCP, whose segments and ACKs come from the pool too.
func TestPooledRunBitIdenticalToUnpooled(t *testing.T) {
	const horizon = 3 * time.Second
	for _, name := range []string{"canonical", "lrd", "mice", "codel-mice"} {
		t.Run(name, func(t *testing.T) {
			d, ok := scenario.Lookup(name)
			if !ok {
				t.Fatalf("scenario %q not in catalog", name)
			}
			d.Spec.Recorded = true
			run := func(pooled bool) ([]groundTruth, sim.Stats) {
				cpl, err := d.CompileSeeded(1)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				if len(cpl.Recorders) != len(cpl.Path.Links) {
					t.Fatalf("%d recorders for %d hops", len(cpl.Recorders), len(cpl.Path.Links))
				}
				cpl.Sim.SetPooling(pooled)
				cpl.Sim.RunUntil(horizon)
				return snapshot(cpl.Recorders), cpl.Sim.Stats()
			}
			pooled, pooledStats := run(true)
			plain, plainStats := run(false)
			if pooledStats.Fired != plainStats.Fired || pooledStats.TCPEvents != plainStats.TCPEvents ||
				pooledStats.CrossEvents != plainStats.CrossEvents {
				t.Fatalf("pooled run fired %d events (%d TCP, %d cross), unpooled %d (%d TCP, %d cross)",
					pooledStats.Fired, pooledStats.TCPEvents, pooledStats.CrossEvents,
					plainStats.Fired, plainStats.TCPEvents, plainStats.CrossEvents)
			}
			for h := range plain {
				if len(pooled[h].arrivals) != len(plain[h].arrivals) {
					t.Fatalf("hop %d: %d pooled arrivals vs %d unpooled",
						h, len(pooled[h].arrivals), len(plain[h].arrivals))
				}
				for i := range plain[h].arrivals {
					if pooled[h].arrivals[i] != plain[h].arrivals[i] {
						t.Fatalf("hop %d arrival %d: pooled %+v != unpooled %+v",
							h, i, pooled[h].arrivals[i], plain[h].arrivals[i])
					}
				}
				if len(pooled[h].busy) != len(plain[h].busy) {
					t.Fatalf("hop %d: %d pooled busy intervals vs %d unpooled",
						h, len(pooled[h].busy), len(plain[h].busy))
				}
				for i := range plain[h].busy {
					if pooled[h].busy[i] != plain[h].busy[i] {
						t.Fatalf("hop %d busy %d: pooled %+v != unpooled %+v",
							h, i, pooled[h].busy[i], plain[h].busy[i])
					}
				}
				if pooled[h].drops != plain[h].drops {
					t.Fatalf("hop %d: pooled drops %d != unpooled %d",
						h, pooled[h].drops, plain[h].drops)
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
