package registry_test

import (
	"context"
	"runtime"
	"testing"

	"abw/internal/rng"
	"abw/internal/scenario"
	"abw/internal/tools/registry"
)

// TestEstimateAllocatesPerStreamNotPerPacket pins what an estimate on
// a default compile allocates: its probe streams and reports, not rows
// per forwarded packet. A compile that records every hop writes an
// arrival row per packet and a busy interval per busy period, 151–191 B
// per forward on these cells; without recorders the bytes are a few
// per forward on a long path and tens on one hop, where the probe
// streams weigh more against fewer cross packets. Bytes, not time, so
// the bound is exact enough to hold on any host.
func TestEstimateAllocatesPerStreamNotPerPacket(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		max      float64 // bytes allocated per forwarded packet
	}{
		{"verylongpath", 8},
		{"canonical", 64},
		// TCP cross traffic allocates per flow (a Conn, its callbacks
		// and its send-time ring), not per segment: 21 B (spruce) and
		// 34 B (pathload) per forward, ACKs counted, where a packet and
		// a closure per segment and per ACK cost 178 B and 151 B.
		{"mice", 64},
	} {
		for _, tool := range []string{"spruce", "pathload"} {
			t.Run(tc.scenario+"/"+tool, func(t *testing.T) {
				sc, ok := scenario.Lookup(tc.scenario)
				if !ok {
					t.Fatalf("unknown scenario %q", tc.scenario)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				cpl, err := sc.CompileSeeded(1)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := registry.Estimate(context.Background(), tool,
					registry.Params{Capacity: cpl.Capacity, Rand: rng.New(2)}, cpl.Transport); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				var forwards int64
				for _, l := range cpl.Path.Links {
					forwards += l.Forwarded()
				}
				if cpl.Reverse != nil { // TCP's ACKs are forwarded packets too
					forwards += cpl.Reverse.Forwarded()
				}
				if forwards < 4_000 {
					t.Fatalf("only %d forwards: the estimate did not run the simulator", forwards)
				}
				bytes := after.TotalAlloc - before.TotalAlloc
				perForward := float64(bytes) / float64(forwards)
				t.Logf("%d B allocated for %d forwards: %.1f B per forward", bytes, forwards, perForward)
				if perForward > tc.max {
					t.Errorf("%.1f B allocated per forward, want at most %.0f", perForward, tc.max)
				}
			})
		}
	}
}
