package scenario

import (
	"slices"
	"testing"
	"time"

	"abw/internal/unit"
)

// TestLRDCompileIsLazy pins the laziness without a timer: a compiled
// lrd scenario has exactly one event pending, its source's feed (the
// eager replayer had a whole 30 s tile, ~177 000), and compiling
// allocates a few dozen objects (it allocated ~348 000). A run that
// crosses the first tile boundary still has that one feed pending and
// nothing else: the next tile is the same feed, not an event of its
// own. 31 s falls between packets at seed 1, so no txDone is pending.
func TestLRDCompileIsLazy(t *testing.T) {
	d, ok := Lookup("lrd")
	if !ok {
		t.Fatal("lrd scenario missing")
	}
	recorded := d
	recorded.Spec.Recorded = true
	cpl, err := recorded.CompileSeeded(1)
	if err != nil {
		t.Fatal(err)
	}
	mustBeRecorded(t, cpl)
	if n := cpl.Sim.Pending(); n != 1 {
		t.Errorf("%d events pending after compile, want 1 (the feed)", n)
	}
	cpl.Sim.RunUntil(31 * time.Second)
	if n := len(cpl.Recorders[0].Arrivals()); n < 150_000 {
		t.Fatalf("only %d arrivals in 31 s: the source did not run across the tile boundary", n)
	}
	if n := cpl.Sim.Pending(); n != 1 {
		t.Errorf("%d events pending after crossing a tile boundary, want 1 (the feed)", n)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := d.CompileSeeded(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 200 {
		t.Errorf("compile allocates %.0f objects, want under 200", allocs)
	}
}

// TestLRDHonoursPktSize: an LRD source with PktSize set emits that
// size, not the Internet mix it defaults to.
func TestLRDHonoursPktSize(t *testing.T) {
	cpl := mustBeRecorded(t, MustCompile(Spec{Recorded: true, Hops: []Hop{{Capacity: 50 * unit.Mbps, Traffic: []Source{{Kind: LRD, Rate: 25 * unit.Mbps, PktSize: 1000}}}}}))
	cpl.Sim.RunUntil(100 * time.Millisecond)
	arrivals := cpl.Recorders[0].Arrivals()
	if len(arrivals) == 0 {
		t.Fatal("no arrivals")
	}
	for _, a := range arrivals {
		if a.Size != 1000 {
			t.Fatalf("arrival of %d bytes, want PktSize 1000", a.Size)
		}
	}
}

// BenchmarkCompile is the compile rung of the ladder, in-tree: one
// fresh CompileSeeded of each scenario the repo benchmark's estimate
// workload compiles per estimate, with the events left pending.
func BenchmarkCompile(b *testing.B) {
	for _, name := range []string{"canonical", "lrd", "mice", "verylongpath"} {
		b.Run(name, func(b *testing.B) {
			d, ok := Lookup(name)
			if !ok {
				b.Fatalf("scenario %q not in catalog", name)
			}
			b.ReportAllocs()
			var cpl *Compiled
			for i := 0; i < b.N; i++ {
				var err error
				if cpl, err = d.CompileSeeded(1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cpl.Sim.Pending()), "pending-events")
		})
	}
}

// TestCompileLeavesOneEventPerSource: right after compile, each
// open-loop source with a nonzero-rate segment has exactly one event
// pending — its feed, which covers all its segments and tiles — and
// each hop with a capacity profile one more, its next step. Entries
// with a TCP source are left out: a connection keeps timers of its own.
func TestCompileLeavesOneEventPerSource(t *testing.T) {
	for _, d := range Catalog() {
		want, tcp := 0, false
		for _, hop := range d.Spec.Hops {
			if len(hop.CapacitySteps) > 0 {
				want++
			}
			for _, src := range hop.Traffic {
				steps := src.Steps
				if len(steps) == 0 {
					steps = []RateStep{{Rate: src.Rate}}
				}
				switch {
				case src.Kind == Mice || src.Kind == BufferLimitedTCP:
					tcp = true
				case slices.ContainsFunc(steps, func(st RateStep) bool { return st.Rate > 0 }):
					want++
				}
			}
		}
		if tcp {
			continue
		}
		d := d
		t.Run(d.Name, func(t *testing.T) {
			cpl, err := d.CompileSeeded(1)
			if err != nil {
				t.Fatal(err)
			}
			if n := cpl.Sim.Pending(); n != want {
				t.Errorf("%d events pending after compile, want %d: one per open-loop source plus one per capacity profile", n, want)
			}
		})
	}
}
