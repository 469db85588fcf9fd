package core

import (
	"math"
	"testing"
	"time"

	"abw/internal/crosstraffic"
	"abw/internal/probe"
	"abw/internal/rng"
	"abw/internal/sim"
	"abw/internal/unit"
)

func TestSampleMeanStdDev(t *testing.T) {
	if got := SampleMeanStdDev(10, 4); got != 5 {
		t.Errorf("SampleMeanStdDev(10, 4) = %g, want 5", got)
	}
	if got := SampleMeanStdDev(10, 1); got != 10 {
		t.Errorf("SampleMeanStdDev(10, 1) = %g, want 10", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("k=0 did not panic")
		}
	}()
	SampleMeanStdDev(1, 0)
}

func TestRequiredSamples(t *testing.T) {
	// σ = 20% of mean, target 5% → k = (0.2/0.05)^2 = 16.
	k, err := RequiredSamples(20, 100, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if k != 16 {
		t.Errorf("RequiredSamples = %d, want 16", k)
	}
	// Short-timescale regime (the pitfall's "hundreds of samples"):
	// σ equal to the mean, target 5% → 400 samples.
	k, err = RequiredSamples(100, 100, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if k != 400 {
		t.Errorf("RequiredSamples = %d, want 400", k)
	}
	if _, err := RequiredSamples(-1, 100, 0.05); err == nil {
		t.Error("negative σ accepted")
	}
	if _, err := RequiredSamples(1, 0, 0.05); err == nil {
		t.Error("zero mean accepted")
	}
	if _, err := RequiredSamples(1, 100, 0); err == nil {
		t.Error("zero target accepted")
	}
}

func TestVarianceLaws(t *testing.T) {
	if got := IIDVariance(100, 4); got != 25 {
		t.Errorf("IIDVariance = %g, want 25", got)
	}
	// H=0.75: Var/k^{0.5}; k=4 → 100/2 = 50. Slower decay than IID.
	got := SelfSimilarVariance(100, 4, 0.75)
	if math.Abs(got-50) > 1e-9 {
		t.Errorf("SelfSimilarVariance = %g, want 50", got)
	}
	if got <= IIDVariance(100, 4) {
		t.Error("self-similar variance must exceed IID variance at same k")
	}
}

func TestVarianceLawPanics(t *testing.T) {
	for _, f := range []func(){
		func() { IIDVariance(1, 0) },
		func() { SelfSimilarVariance(1, 0, 0.75) },
		func() { SelfSimilarVariance(1, 4, 0.5) },
		func() { SelfSimilarVariance(1, 4, 1.0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid variance-law input did not panic")
				}
			}()
			f()
		}()
	}
}

func TestMisconceptionsCatalog(t *testing.T) {
	if len(Misconceptions) != 10 {
		t.Fatalf("catalog has %d entries, want 10", len(Misconceptions))
	}
	fallacies, pitfalls := 0, 0
	for i, m := range Misconceptions {
		if m.ID != i+1 {
			t.Errorf("entry %d has ID %d", i, m.ID)
		}
		if m.Title == "" || m.Summary == "" || m.Experiment == "" {
			t.Errorf("entry %d incomplete", i)
		}
		switch m.Kind {
		case Fallacy:
			fallacies++
		case Pitfall:
			pitfalls++
		default:
			t.Errorf("entry %d has unknown kind %q", i, m.Kind)
		}
	}
	// The paper presents 4 fallacies and 6 pitfalls.
	if fallacies != 4 || pitfalls != 6 {
		t.Errorf("kinds = %d fallacies + %d pitfalls, want 4 + 6", fallacies, pitfalls)
	}
}

func TestReportString(t *testing.T) {
	point := &Report{Tool: "spruce", Point: 25 * unit.Mbps, Low: 25 * unit.Mbps, High: 25 * unit.Mbps}
	if s := point.String(); s == "" {
		t.Error("empty point report string")
	}
	ranged := &Report{Tool: "pathload", Point: 25 * unit.Mbps, Low: 20 * unit.Mbps, High: 30 * unit.Mbps}
	if s := ranged.String(); s == "" {
		t.Error("empty range report string")
	}
	if point.String() == ranged.String() {
		t.Error("point and range reports render identically")
	}
}

// buildSingleHop returns a transport over the paper's canonical scenario:
// one 50 Mbps link with 25 Mbps cross traffic for `horizon`.
func buildSingleHop(t *testing.T, model func(*rng.Rand) crosstraffic.Model, horizon time.Duration) *SimTransport {
	t.Helper()
	s := sim.New()
	l := s.NewLink("tight", 50*unit.Mbps, time.Millisecond)
	path := sim.MustPath(l)
	s.Feed([]*sim.Link{l}, sim.KindCross, 0, model(rng.New(1)).Over(0, horizon).Next)
	return NewSimTransport(s, path)
}

func TestSimTransportProbeResolves(t *testing.T) {
	tr := buildSingleHop(t, func(r *rng.Rand) crosstraffic.Model {
		return crosstraffic.Poisson(crosstraffic.Stream{Rate: 25 * unit.Mbps}, r)
	}, 10*time.Second)
	rec, err := tr.Probe(probe.Periodic(20*unit.Mbps, 1500, 100))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Done() {
		t.Error("probe did not resolve")
	}
	if !rec.Complete() {
		t.Errorf("lost %d packets on an unbounded-buffer path", rec.LossCount())
	}
	if rec.OutputRate() <= 0 {
		t.Error("no output rate measured")
	}
}

func TestSimTransportSequentialStreamsAdvanceTime(t *testing.T) {
	tr := buildSingleHop(t, func(r *rng.Rand) crosstraffic.Model {
		return crosstraffic.Poisson(crosstraffic.Stream{Rate: 25 * unit.Mbps}, r)
	}, 30*time.Second)
	t0 := tr.Now()
	if _, err := tr.Probe(probe.Periodic(20*unit.Mbps, 1500, 50)); err != nil {
		t.Fatal(err)
	}
	t1 := tr.Now()
	if _, err := tr.Probe(probe.Periodic(20*unit.Mbps, 1500, 50)); err != nil {
		t.Fatal(err)
	}
	t2 := tr.Now()
	if !(t0 < t1 && t1 < t2) {
		t.Errorf("virtual time did not advance: %v %v %v", t0, t1, t2)
	}
}

func TestSimTransportRejectsInvalidSpec(t *testing.T) {
	tr := buildSingleHop(t, func(r *rng.Rand) crosstraffic.Model {
		return crosstraffic.CBR(crosstraffic.Stream{Rate: 25 * unit.Mbps})
	}, time.Second)
	if _, err := tr.Probe(probe.StreamSpec{}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestSimTransportMissingFields(t *testing.T) {
	var tr SimTransport
	if _, err := tr.Probe(probe.Periodic(unit.Mbps, 1500, 2)); err == nil {
		t.Error("nil sim/path accepted")
	}
}

func TestSimTransportMeasuredRatioMatchesFluid(t *testing.T) {
	// End-to-end: direct estimate over the transport with CBR cross
	// traffic recovers A = 25 Mbps via Eq. (9).
	tr := buildSingleHop(t, func(r *rng.Rand) crosstraffic.Model {
		return crosstraffic.CBR(crosstraffic.Stream{Rate: 25 * unit.Mbps, Sizes: rng.FixedSize(200)})
	}, 10*time.Second)
	rec, err := tr.Probe(probe.Periodic(40*unit.Mbps, 1500, 200))
	if err != nil {
		t.Fatal(err)
	}
	ri, ro := rec.InputRate(), rec.OutputRate()
	if ro >= ri {
		t.Fatalf("expected compression at Ri=40 > A=25: ri=%v ro=%v", ri, ro)
	}
	// Eq. (9) with known Ct.
	a := 50*unit.Mbps - ri*(50*unit.Mbps/ro-1)
	if math.Abs(a.MbpsOf()-25) > 1.5 {
		t.Errorf("direct estimate over transport = %v, want ~25Mbps", a)
	}
}
