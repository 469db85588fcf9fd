package scenario

import (
	"slices"
	"testing"
	"time"

	"abw/internal/unit"
)

// TestLRDCompileIsLazy pins the laziness without a timer: a compiled
// lrd scenario folds its source into the link and has no event pending
// (the eager replayer had a whole 30 s tile, ~177 000), and compiling
// allocates a few dozen objects (it allocated ~348 000). A recorded
// compile keeps the source on the event path, with exactly one event
// pending, its feed. A run that crosses the first tile boundary leaves
// either as it was: the next tile is the same feed, not an event of its
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
	bare, err := d.CompileSeeded(1)
	if err != nil {
		t.Fatal(err)
	}
	if n, m := cpl.Sim.Pending(), bare.Sim.Pending(); n != 1 || m != 0 {
		t.Errorf("%d / %d events pending after a recorded / default compile, want 1 (the feed) / 0", n, m)
	}
	cpl.Sim.RunUntil(31 * time.Second)
	bare.Sim.RunUntil(31 * time.Second)
	if n := len(cpl.Recorders[0].Arrivals()); n < 150_000 {
		t.Fatalf("only %d arrivals in 31 s: the source did not run across the tile boundary", n)
	}
	if n, m := bare.Path.Links[0].Forwarded(), cpl.Path.Links[0].Forwarded(); n != m {
		t.Errorf("the folded source forwarded %d packets in 31 s, the recorded one %d", n, m)
	}
	if n, m := cpl.Sim.Pending(), bare.Sim.Pending(); n != 1 || m != 0 {
		t.Errorf("%d / %d events pending after crossing a tile boundary, want 1 (the feed) / 0", n, m)
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
// open-loop source with a nonzero-rate segment on a hop that keeps it
// on the event path has exactly one event pending — its feed, which
// covers all its segments and tiles — and each hop with a capacity
// profile one more, its next step. A source on a hop with no discipline
// and no recorder folds into the link and leaves none, whatever loss,
// jitter, capacity profile or buffer bound the hop has. Entries with a TCP source are
// left out: a connection keeps timers of its own.
func TestCompileLeavesOneEventPerSource(t *testing.T) {
	for _, d := range Catalog() {
		d := d
		tcp := slices.ContainsFunc(d.Spec.Hops, func(hop Hop) bool {
			return slices.ContainsFunc(hop.Traffic, func(src Source) bool { return src.Kind == Mice || src.Kind == BufferLimitedTCP })
		})
		if tcp {
			continue
		}
		t.Run(d.Name, func(t *testing.T) {
			cpl, err := d.CompileSeeded(1)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for h, hop := range d.Spec.Hops {
				if len(hop.CapacitySteps) > 0 {
					want++
				}
				l := cpl.Path.Links[h]
				if l.Discipline() == nil && l.Recorder() == nil {
					continue // the hop folds
				}
				for _, src := range hop.Traffic {
					steps := src.Steps
					if len(steps) == 0 {
						steps = []RateStep{{Rate: src.Rate}}
					}
					if slices.ContainsFunc(steps, func(st RateStep) bool { return st.Rate > 0 }) {
						want++
					}
				}
			}
			if n := cpl.Sim.Pending(); n != want {
				t.Errorf("%d events pending after compile, want %d: one per source on a hop that does not fold plus one per capacity profile", n, want)
			}
		})
	}
}
