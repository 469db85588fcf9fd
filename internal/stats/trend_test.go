package stats

import (
	"math"
	"testing"

	"abw/internal/rng"
)

func TestPCTMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := PCT(xs); got != 1 {
		t.Errorf("PCT of increasing series = %g, want 1", got)
	}
	rev := []float64{5, 4, 3, 2, 1}
	if got := PCT(rev); got != 0 {
		t.Errorf("PCT of decreasing series = %g, want 0", got)
	}
}

func TestPCTRandomNearHalf(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	if got := PCT(xs); math.Abs(got-0.5) > 0.03 {
		t.Errorf("PCT of random series = %g, want ~0.5", got)
	}
}

func TestPDTMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := PDT(xs); got != 1 {
		t.Errorf("PDT of increasing series = %g, want 1", got)
	}
	rev := []float64{5, 4, 3, 2, 1}
	if got := PDT(rev); got != -1 {
		t.Errorf("PDT of decreasing series = %g, want -1", got)
	}
}

func TestPDTTrendless(t *testing.T) {
	r := rng.New(2)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	if got := PDT(xs); math.Abs(got) > 0.05 {
		t.Errorf("PDT of random series = %g, want ~0", got)
	}
}

func TestPDTConstantSeries(t *testing.T) {
	if got := PDT([]float64{3, 3, 3}); got != 0 {
		t.Errorf("PDT of constant series = %g, want 0", got)
	}
}

func TestShortSeriesNaN(t *testing.T) {
	if !math.IsNaN(PCT([]float64{1})) || !math.IsNaN(PDT(nil)) {
		t.Error("PCT/PDT of short series should be NaN")
	}
}

func TestMedianGroups(t *testing.T) {
	xs := []float64{5, 1, 3, 9, 7, 11, 2, 8, 6}
	got := MedianGroups(xs, 3)
	// groups: [5 1 3] [9 7 11] [2 8 6] → medians 3, 9, 6
	want := []float64{3, 9, 6}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MedianGroups = %v, want %v", got, want)
		}
	}
}

func TestMedianGroupsEdges(t *testing.T) {
	if got := MedianGroups(nil, 3); got != nil {
		t.Error("MedianGroups(nil) should be nil")
	}
	if got := MedianGroups([]float64{1, 2}, 5); len(got) != 2 {
		t.Errorf("g > len collapses to len: got %v", got)
	}
	if got := MedianGroups([]float64{1, 2, 3, 4}, 2); got[0] != 1.5 || got[1] != 3.5 {
		t.Errorf("even-size medians wrong: %v", got)
	}
}

func TestOWDTrendIncreasing(t *testing.T) {
	// Steady queue buildup with mild noise: must classify increasing.
	r := rng.New(3)
	owds := make([]float64, 160)
	for i := range owds {
		owds[i] = float64(i)*0.5 + r.Norm()*2
	}
	res := OWDTrend(owds)
	if res.Verdict != TrendIncreasing {
		t.Errorf("verdict = %v (PCT=%.2f PDT=%.2f), want increasing", res.Verdict, res.PCT, res.PDT)
	}
}

func TestOWDTrendFlat(t *testing.T) {
	r := rng.New(4)
	owds := make([]float64, 160)
	for i := range owds {
		owds[i] = 200 + r.Norm()*3
	}
	res := OWDTrend(owds)
	if res.Verdict != TrendNonIncreasing {
		t.Errorf("verdict = %v (PCT=%.2f PDT=%.2f), want non-increasing", res.Verdict, res.PCT, res.PDT)
	}
}

func TestOWDTrendLateBurstIsNotIncreasing(t *testing.T) {
	// The Figure 5 scenario: flat OWDs with a sudden level shift in the
	// last few packets (a cross-traffic burst). Ro/Ri would scream
	// "overload"; trend analysis must not.
	r := rng.New(5)
	owds := make([]float64, 160)
	for i := range owds {
		owds[i] = 200 + r.Norm()*2
	}
	for i := 152; i < 160; i++ {
		owds[i] = 240 + r.Norm()*2 // late burst
	}
	res := OWDTrend(owds)
	if res.Verdict == TrendIncreasing {
		t.Errorf("late burst misclassified as increasing (PCT=%.2f PDT=%.2f)", res.PCT, res.PDT)
	}
}

func TestOWDTrendRobustToOutliers(t *testing.T) {
	// Median-of-groups should shrug off isolated spikes on a clear trend.
	r := rng.New(6)
	owds := make([]float64, 160)
	for i := range owds {
		owds[i] = float64(i) + r.Norm()
		if i%37 == 0 {
			owds[i] += 500 // spike
		}
	}
	res := OWDTrend(owds)
	if res.Verdict != TrendIncreasing {
		t.Errorf("spiky increasing series: verdict = %v, want increasing", res.Verdict)
	}
}

func TestTrendString(t *testing.T) {
	if TrendIncreasing.String() != "increasing" ||
		TrendNonIncreasing.String() != "non-increasing" ||
		TrendAmbiguous.String() != "ambiguous" {
		t.Error("Trend String names wrong")
	}
}
