package scenario

import (
	"testing"
	"time"

	"abw/internal/sim"
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
// truth, arrival by arrival.
func TestPooledRunBitIdenticalToUnpooled(t *testing.T) {
	const horizon = 3 * time.Second
	for _, name := range []string{"canonical", "lrd"} {
		t.Run(name, func(t *testing.T) {
			d, ok := Lookup(name)
			if !ok {
				t.Fatalf("scenario %q not in catalog", name)
			}
			d.Spec.Recorded = true
			run := func(pooled bool) []groundTruth {
				cpl, err := d.CompileSeeded(1)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				mustBeRecorded(t, cpl)
				cpl.Sim.SetPooling(pooled)
				cpl.Sim.RunUntil(horizon)
				return snapshot(cpl.Recorders)
			}
			pooled := run(true)
			plain := run(false)
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
