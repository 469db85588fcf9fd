package crosstraffic

import (
	"math"
	"testing"
	"time"

	"abw/internal/rng"
	"abw/internal/unit"
)

func TestParetoArrivalsRateConverges(t *testing.T) {
	m := ParetoArrivals(Stream{Rate: 35 * unit.Mbps}, 1.9, rng.New(1))
	_, ctr := runModel(m, 200*unit.Mbps, 20*time.Second)
	got := ctr.AvgRate(20 * time.Second)
	if math.Abs(got.MbpsOf()-35)/35 > 0.15 {
		t.Errorf("ParetoArrivals rate = %v, want ~35Mbps (+-15%%)", got)
	}
}

func TestParetoArrivalsHeavierTailThanPoisson(t *testing.T) {
	// Pareto interarrivals with shape close to 1 must produce burstier
	// windowed counts than Poisson at the same mean rate.
	const runFor = 20 * time.Second
	const win = 10 * time.Millisecond
	poisson, _ := runModel(Poisson(Stream{Rate: 20 * unit.Mbps}, rng.New(2)), 200*unit.Mbps, runFor)
	pareto, _ := runModel(ParetoArrivals(Stream{Rate: 20 * unit.Mbps}, 1.3, rng.New(3)), 200*unit.Mbps, runFor)
	vPoisson := windowVariance(poisson, runFor, win)
	vPareto := windowVariance(pareto, runFor, win)
	if vPareto <= vPoisson {
		t.Errorf("Pareto-gap variance %g should exceed Poisson %g", vPareto, vPoisson)
	}
}

func TestParetoArrivalsInterarrivalMinimum(t *testing.T) {
	// Pareto gaps have a hard minimum x_m: no two arrivals closer than
	// that.
	m := ParetoArrivals(Stream{Rate: 10 * unit.Mbps}, 2.0, rng.New(4))
	arr, _ := runModel(m, 100*unit.Mbps, 5*time.Second)
	meanGap := 1500.0 * 8 / 10e6
	xm := meanGap * (2.0 - 1) / 2.0
	for i := 1; i < len(arr); i++ {
		gap := (arr[i].At - arr[i-1].At).Seconds()
		if gap < xm*0.999 {
			t.Fatalf("interarrival %g below Pareto minimum %g", gap, xm)
		}
	}
}

func TestParetoArrivalsValidation(t *testing.T) {
	for i, f := range []func(){
		func() { ParetoArrivals(Stream{}, 1.9, rng.New(1)) },
		func() { ParetoArrivals(Stream{Rate: unit.Mbps}, 1.0, rng.New(1)) },
		func() { ParetoArrivals(Stream{Rate: unit.Mbps}, 1.9, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid ParetoArrivals config did not panic", i)
				}
			}()
			f()
		}()
	}
}
