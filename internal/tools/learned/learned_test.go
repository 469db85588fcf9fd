package learned

import (
	"context"
	"math"
	"reflect"
	"testing"

	"abw/internal/core"
	"abw/internal/tools/toolstest"
	"abw/internal/unit"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(core.Params{}); err == nil {
		t.Error("missing capacity accepted")
	}
	if _, err := New(core.Params{Capacity: unit.Rate(math.NaN())}); err == nil {
		t.Error("NaN capacity accepted")
	}
	if _, err := New(core.Params{Capacity: 50 * unit.Mbps, StreamLen: 1}); err == nil {
		t.Error("1-packet stream accepted")
	}
	if _, err := New(core.Params{Capacity: 50 * unit.Mbps, Repeat: -1}); err == nil {
		t.Error("negative streams per rate accepted")
	}
	if _, err := New(core.Params{Capacity: 50 * unit.Mbps, MaxRounds: -1}); err == nil {
		t.Error("negative rate-fraction count accepted")
	}
	if _, err := Parse([]byte(`{"schema": "nope"}`)); err == nil {
		t.Error("invalid weights accepted")
	}
}

func TestDefaultsComeFromPlan(t *testing.T) {
	e, err := New(core.Params{Capacity: 50 * unit.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	if plan := e.w.Plan; !reflect.DeepEqual(e.plan, plan) {
		t.Errorf("estimator plan %+v does not follow the weight file's plan %+v", e.plan, plan)
	}
}

// TestMaxRoundsCapsRateFractions: MaxRounds is the number of the
// plan's rate fractions probed, in plan order; more than the plan has
// probes them all. One stream a fraction (Repeat 1), so an estimate
// sends one stream per fraction probed.
func TestMaxRoundsCapsRateFractions(t *testing.T) {
	plan := DefaultPlan()
	for _, c := range []struct{ rounds, want int }{{1, 1}, {2, 2}, {len(plan.RateFracs) + 5, len(plan.RateFracs)}} {
		sc := toolstest.New(toolstest.Options{Model: toolstest.CBR})
		e, err := New(core.Params{Capacity: sc.Capacity, MaxRounds: c.rounds, Repeat: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e.plan.RateFracs, plan.RateFracs[:c.want]) {
			t.Errorf("MaxRounds %d plans %v, want %v", c.rounds, e.plan.RateFracs, plan.RateFracs[:c.want])
		}
		rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Streams != c.want {
			t.Errorf("MaxRounds %d sends %d streams, want %d", c.rounds, rep.Streams, c.want)
		}
	}
}

// TestEstimateCanonicalPath runs the committed weights end-to-end on
// the canonical scenario family the model trained on: a single CBR
// tight link. The tolerance is looser than the analytic tools' — the
// model fits the whole catalog, not this path — but a sane model must
// land well within the capacity scale.
func TestEstimateCanonicalPath(t *testing.T) {
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR})
	e, err := New(core.Params{Capacity: sc.Capacity})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Point.MbpsOf()
	trueA := sc.TrueAvailBw.MbpsOf()
	if math.Abs(got-trueA) > 10 {
		t.Errorf("estimate = %.2f Mbps, want %.1f ± 10", got, trueA)
	}
	if rep.Low > rep.Point || rep.Point > rep.High {
		t.Errorf("range disordered: low %v point %v high %v", rep.Low, rep.Point, rep.High)
	}
	if want := len(e.plan.RateFracs) * e.plan.StreamsPerFrac; rep.Streams != want {
		t.Errorf("streams = %d, want %d", rep.Streams, want)
	}
	if rep.Packets <= 0 || rep.ProbeBytes <= 0 || rep.Elapsed <= 0 {
		t.Errorf("effort not accounted: %+v", rep)
	}
	if len(rep.Samples) != rep.Streams {
		t.Errorf("%d samples for %d streams", len(rep.Samples), rep.Streams)
	}
}

// TestEstimateDeterministic pins the registry contract: two estimators
// over identically-seeded scenarios report identical results.
func TestEstimateDeterministic(t *testing.T) {
	run := func() *core.Report {
		sc := toolstest.New(toolstest.Options{Model: toolstest.Poisson})
		e, err := New(core.Params{Capacity: sc.Capacity})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := toolstest.Estimate(context.Background(), e, sc.Transport)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Point != b.Point || a.Low != b.Low || a.High != b.High {
		t.Errorf("reports differ across identical runs: %+v vs %+v", a, b)
	}
}

func TestEstimateHonorsContext(t *testing.T) {
	sc := toolstest.New(toolstest.Options{})
	e, err := New(core.Params{Capacity: sc.Capacity})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := toolstest.Estimate(ctx, e, sc.Transport); err == nil {
		t.Error("cancelled context did not abort the estimate")
	}
}
