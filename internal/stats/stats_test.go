package stats

import (
	"math"
	"testing"
	"testing/quick"

	"abw/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", m)
	}
	// Sample variance with n-1: sum sq dev = 32, / 7.
	if v := Variance(xs); !almostEq(v, 32.0/7, 1e-12) {
		t.Errorf("Variance = %g, want %g", v, 32.0/7)
	}
	if s := StdDev(xs); !almostEq(s, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %g", s)
	}
}

func TestMeanEmptyNaN(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single value should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%g, %g), want (-1, 7)", min, max)
	}
}

func TestRelativeError(t *testing.T) {
	if e := RelativeError(110, 100); !almostEq(e, 0.1, 1e-12) {
		t.Errorf("RelativeError = %g, want 0.1", e)
	}
	if e := RelativeError(90, 100); !almostEq(e, -0.1, 1e-12) {
		t.Errorf("RelativeError = %g, want -0.1", e)
	}
	defer func() {
		if recover() == nil {
			t.Error("RelativeError with zero truth did not panic")
		}
	}()
	RelativeError(1, 0)
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.P(tc.x); !almostEq(got, tc.want, 1e-12) {
			t.Errorf("P(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if q := c.Quantile(0); q != 10 {
		t.Errorf("Q(0) = %g, want 10", q)
	}
	if q := c.Quantile(1); q != 50 {
		t.Errorf("Q(1) = %g, want 50", q)
	}
	if q := c.Quantile(0.5); q != 30 {
		t.Errorf("Q(0.5) = %g, want 30", q)
	}
	if q := c.Quantile(0.25); q != 20 {
		t.Errorf("Q(0.25) = %g, want 20", q)
	}
}

func TestCDFQuantileMonotoneProperty(t *testing.T) {
	r := rng.New(1)
	sample := make([]float64, 200)
	for i := range sample {
		sample[i] = r.Norm()
	}
	c := NewCDF(sample)
	f := func(aRaw, bRaw uint8) bool {
		qa := float64(aRaw) / 255
		qb := float64(bRaw) / 255
		if qa > qb {
			qa, qb = qb, qa
		}
		return c.Quantile(qa) <= c.Quantile(qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if !math.IsNaN(c.P(1)) || !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF queries should be NaN")
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2})
	xs, ps := c.Points()
	wantX := []float64{1, 2, 3}
	wantP := []float64{1.0 / 3, 2.0 / 3, 1}
	for i := range wantX {
		if xs[i] != wantX[i] || !almostEq(ps[i], wantP[i], 1e-12) {
			t.Fatalf("Points = (%v, %v)", xs, ps)
		}
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 1 + 2x
	a, b, r2, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(a, 1, 1e-12) || !almostEq(b, 2, 1e-12) || !almostEq(r2, 1, 1e-12) {
		t.Errorf("fit = (%g, %g, %g), want (1, 2, 1)", a, b, r2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, _, _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("constant x accepted")
	}
}

func TestAggregate(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	got := Aggregate(xs, 2)
	want := []float64{1.5, 3.5, 5.5}
	if len(got) != len(want) {
		t.Fatalf("Aggregate = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Aggregate = %v, want %v", got, want)
		}
	}
}

func TestAggregatePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Aggregate(k=0) did not panic")
		}
	}()
	Aggregate([]float64{1}, 0)
}

func TestHurstVTWhiteNoise(t *testing.T) {
	r := rng.New(2)
	xs := make([]float64, 1<<15)
	for i := range xs {
		xs[i] = r.Norm()
	}
	h, err := HurstVT(xs, []int{1, 2, 4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-0.5) > 0.05 {
		t.Errorf("Hurst of white noise = %g, want ~0.5", h)
	}
}

func TestHurstVTNeedsLevels(t *testing.T) {
	if _, err := HurstVT([]float64{1, 2, 3}, []int{1}); err == nil {
		t.Error("single aggregation level accepted")
	}
}
