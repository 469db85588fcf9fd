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
// allocates a few dozen objects (it allocated ~348 000). A run that
// crosses the first tile boundary leaves it as it was: the next tile is
// the same feed, not an event of its own. Over those 31 s the source
// offers more than 150 000 packets, and the folded link forwards
// exactly those that Lindley's recursion over them (departure =
// max(arrival, previous departure) + L/C) departs by 31 s. The event
// path's half, one event pending before and after the boundary, is
// sim's TestLRDFeedIsLazyOnTheEventPath.
func TestLRDCompileIsLazy(t *testing.T) {
	d, ok := Lookup("lrd")
	if !ok {
		t.Fatal("lrd scenario missing")
	}
	cpl, err := d.CompileSeeded(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := cpl.Sim.Pending(); n != 0 {
		t.Errorf("%d events pending after compile, want 0", n)
	}
	const until = 31 * time.Second
	cpl.Sim.RunUntil(until)
	offered, err := cpl.Offered(0, until)
	if err != nil {
		t.Fatal(err)
	}
	if n := offered.Len(); n < 150_000 {
		t.Fatalf("only %d packets offered in 31 s: the source did not run across the tile boundary", n)
	}
	var dep time.Duration
	var departed int64
	for _, p := range offered.Packets() {
		dep = max(dep, p.At) + unit.TxTime(p.Size, cpl.Capacity)
		if dep <= until {
			departed++
		}
	}
	if n := cpl.Path.Links[0].Forwarded(); n != departed {
		t.Errorf("the folded source forwarded %d packets in 31 s, Lindley's recursion %d", n, departed)
	}
	if n := cpl.Sim.Pending(); n != 0 {
		t.Errorf("%d events pending after crossing a tile boundary, want 0", n)
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
	cpl := MustCompile(Spec{Hops: []Hop{{Capacity: 50 * unit.Mbps, Traffic: []Source{{Kind: LRD, Rate: 25 * unit.Mbps, PktSize: 1000}}}}})
	offered, err := cpl.Offered(0, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if offered.Len() == 0 {
		t.Fatal("no arrivals")
	}
	for _, p := range offered.Packets() {
		if p.Size != 1000 {
			t.Fatalf("arrival of %d bytes, want PktSize 1000", p.Size)
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
// folds into the link and leaves none, whatever loss,
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
				if l.Discipline() == nil {
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
