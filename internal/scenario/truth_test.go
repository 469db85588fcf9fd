package scenario

import (
	"math"
	"slices"
	"testing"
	"time"

	"abw/internal/sim"
	"abw/internal/unit"
)

// horizonTruth is the oracle for the horizon truth: the formula Compile
// used before AvailBw took a window. Each source's mean rate over
// [0, horizon), summed per hop, is thinned by the hop's loss mean and
// taken from the hop's mean capacity over the horizon, clamped at 0.
// The tight hop is the first with the least avail-bw.
func horizonTruth(c *Compiled) (tight int, avail unit.Rate) {
	horizon := c.Spec.Horizon
	for h, hop := range c.Spec.Hops {
		var load unit.Rate
		for _, src := range hop.Traffic {
			segs, err := src.segments(horizon)
			if err != nil {
				panic(err)
			}
			var weighted float64
			for _, g := range segs {
				weighted += float64(g.rate) * (g.until - g.from).Seconds()
			}
			load += unit.Rate(weighted / horizon.Seconds())
		}
		capacity := hop.Capacity
		if len(hop.CapacitySteps) > 0 {
			capacity = sim.MeanCapacity(capacitySteps(hop.CapacitySteps), 0, horizon)
		}
		a := capacity - unit.Rate(float64(load)*(1-c.lossMeans[h]))
		if a < 0 {
			a = 0
		}
		if h == 0 || a < avail {
			tight, avail = h, a
		}
	}
	return tight, avail
}

// TestWindowAvailBw is the window truth, table-driven. Over
// [0, Horizon) it equals the horizon-truth oracle bit for bit on every
// catalog entry, and so does TrueAvailBw. Inside each constant stretch
// of the step, fading, fading-bursty and ramp entries, and inside the
// middle half of it, it equals the capacity in force less the rates in
// force, to within 1 bit/s.
func TestWindowAvailBw(t *testing.T) {
	for _, d := range Catalog() {
		t.Run(d.Name, func(t *testing.T) {
			cpl, err := d.CompileSeeded(1)
			if err != nil {
				t.Fatal(err)
			}
			tight, want := horizonTruth(cpl)
			if cpl.TightLink != tight || cpl.TrueAvailBw != want {
				t.Errorf("tight hop %d with TrueAvailBw %v, oracle hop %d with %v", cpl.TightLink, cpl.TrueAvailBw, tight, want)
			}
			if got := cpl.AvailBw(tight, 0, cpl.Spec.Horizon); got != want {
				t.Errorf("AvailBw over [0, Horizon) = %v, oracle %v", got, want)
			}
		})
	}
	for _, name := range []string{"step", "fading", "fading-bursty", "ramp"} {
		t.Run("steps/"+name, func(t *testing.T) {
			d, ok := Lookup(name)
			if !ok {
				t.Fatalf("scenario %q not in catalog", name)
			}
			cpl, err := d.CompileSeeded(1)
			if err != nil {
				t.Fatal(err)
			}
			horizon := cpl.Spec.Horizon
			for h, hop := range cpl.Spec.Hops {
				// The stretches: between consecutive step instants of the
				// hop's capacity profile and its sources' rate profiles.
				edges := []time.Duration{0, horizon}
				for _, st := range hop.CapacitySteps {
					edges = append(edges, st.At)
				}
				for _, src := range hop.Traffic {
					for _, st := range src.Steps {
						edges = append(edges, st.At)
					}
				}
				slices.Sort(edges)
				edges = slices.Compact(edges)
				if len(edges) < 3 {
					t.Fatalf("hop %d has one constant stretch; the entry exists to vary", h)
				}
				for i := 0; i+1 < len(edges); i++ {
					from, to := edges[i], edges[i+1]
					want := rateAt(hop.CapacitySteps, hop.Capacity, from)
					for _, src := range hop.Traffic {
						want -= rateAt(src.Steps, src.Rate, from)
					}
					want = max(want, 0)
					for _, w := range [][2]time.Duration{{from, to - from}, {from + (to-from)/4, (to - from) / 2}} {
						if got := cpl.AvailBw(h, w[0], w[1]); math.Abs(float64(got-want)) > 1 {
							t.Errorf("hop %d over [%v, %v): AvailBw = %v, want C_i − R_i = %v", h, w[0], w[0]+w[1], got, want)
						}
					}
				}
			}
		})
	}
}

// rateAt returns the rate a profile holds at t, or fixed without one.
func rateAt(steps []RateStep, fixed unit.Rate, t time.Duration) unit.Rate {
	for i := len(steps) - 1; i >= 0; i-- {
		if steps[i].At <= t {
			return steps[i].Rate
		}
	}
	return fixed
}
