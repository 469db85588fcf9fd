package fgn

import (
	"math"
	"testing"

	"abw/internal/rng"
)

func TestAutocovKnownValues(t *testing.T) {
	// H = 0.5 (white noise): γ(0)=1, γ(k)=0 for k>0.
	if got := Autocov(0.5, 0); got != 1 {
		t.Errorf("Autocov(0.5, 0) = %g, want 1", got)
	}
	for k := 1; k < 5; k++ {
		if got := Autocov(0.5, k); math.Abs(got) > 1e-12 {
			t.Errorf("Autocov(0.5, %d) = %g, want 0", k, got)
		}
	}
	// H > 0.5: positive correlation at all lags.
	for k := 1; k < 100; k++ {
		if got := Autocov(0.8, k); got <= 0 {
			t.Errorf("Autocov(0.8, %d) = %g, want > 0", k, got)
		}
	}
	// H < 0.5: negative correlation at lag 1.
	if got := Autocov(0.3, 1); got >= 0 {
		t.Errorf("Autocov(0.3, 1) = %g, want < 0", got)
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	for _, h := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewGenerator(h, 100); err == nil {
			t.Errorf("NewGenerator(h=%g) accepted invalid Hurst", h)
		}
	}
	if _, err := NewGenerator(0.8, 0); err == nil {
		t.Error("NewGenerator(n=0) accepted")
	}
}

func TestSampleMoments(t *testing.T) {
	g, err := NewGenerator(0.75, 4096)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	var sum, sumSq float64
	n := 0
	for trial := 0; trial < 20; trial++ {
		path, err := g.Sample(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range path {
			sum += v
			sumSq += v * v
			n++
		}
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("fGn mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("fGn variance = %g, want ~1", variance)
	}
}

func TestLagOneAutocorrelation(t *testing.T) {
	// Empirical lag-1 autocorrelation should match γ(1) = 2^{2H-1} − 1.
	for _, h := range []float64{0.6, 0.8, 0.9} {
		g, err := NewGenerator(h, 8192)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(42)
		var num, den float64
		for trial := 0; trial < 10; trial++ {
			path, err := g.Sample(r)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i+1 < len(path); i++ {
				num += path[i] * path[i+1]
				den += path[i] * path[i]
			}
		}
		got := num / den
		want := Autocov(h, 1)
		if math.Abs(got-want) > 0.05 {
			t.Errorf("H=%g: lag-1 autocorr = %g, want ~%g", h, got, want)
		}
	}
}

// aggregatedVariance computes Var of the k-aggregated series, the
// quantity in the paper's Equations (4) and (5).
func aggregatedVariance(path []float64, k int) float64 {
	n := len(path) / k
	if n < 2 {
		return math.NaN()
	}
	agg := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < k; j++ {
			s += path[i*k+j]
		}
		agg[i] = s / float64(k)
	}
	var mean float64
	for _, v := range agg {
		mean += v
	}
	mean /= float64(n)
	var variance float64
	for _, v := range agg {
		variance += (v - mean) * (v - mean)
	}
	return variance / float64(n-1)
}

func TestEquation4IIDVarianceLaw(t *testing.T) {
	// Paper Eq. (4): for an IID process, Var[A_τk] = Var[A_τ]/k.
	// fGn with H = 0.5 is IID Gaussian, so the aggregated variance must
	// fall by ~k when we aggregate over k samples.
	g, err := NewGenerator(0.5, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	path, err := g.Sample(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	v1 := aggregatedVariance(path, 1)
	for _, k := range []int{4, 16, 64} {
		vk := aggregatedVariance(path, k)
		want := v1 / float64(k)
		if vk <= 0 || math.Abs(vk-want)/want > 0.35 {
			t.Errorf("H=0.5 k=%d: aggregated variance = %g, Eq.(4) predicts %g", k, vk, want)
		}
	}
}

func TestEquation5SelfSimilarVarianceLaw(t *testing.T) {
	// Paper Eq. (5): for exactly self-similar traffic with Hurst H,
	// Var[A_τk] = Var[A_τ] / k^{2(1-H)} — slower decay than IID. Fit the
	// decay exponent from the variance–time relation and compare to
	// 2(1-H).
	for _, h := range []float64{0.7, 0.85} {
		g, err := NewGenerator(h, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		path, err := g.Sample(rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		ks := []int{1, 2, 4, 8, 16, 32, 64}
		var sx, sy, sxx, sxy float64
		for _, k := range ks {
			x := math.Log(float64(k))
			y := math.Log(aggregatedVariance(path, k))
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
		n := float64(len(ks))
		slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
		wantSlope := -2 * (1 - h)
		if math.Abs(slope-wantSlope) > 0.15 {
			t.Errorf("H=%g: variance-time slope = %g, Eq.(5) predicts %g", h, slope, wantSlope)
		}
	}
}

func TestSelfSimilarDecaysSlowerThanIID(t *testing.T) {
	// The qualitative claim behind the paper's first pitfall: at equal
	// k, an LRD process retains much more aggregate variance than IID.
	gIID, err := NewGenerator(0.5, 1<<15)
	if err != nil {
		t.Fatal(err)
	}
	gLRD, err := NewGenerator(0.9, 1<<15)
	if err != nil {
		t.Fatal(err)
	}
	pIID, err := gIID.Sample(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	pLRD, err := gLRD.Sample(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	const k = 64
	ratioIID := aggregatedVariance(pIID, k) / aggregatedVariance(pIID, 1)
	ratioLRD := aggregatedVariance(pLRD, k) / aggregatedVariance(pLRD, 1)
	if ratioLRD < 4*ratioIID {
		t.Errorf("LRD aggregate-variance ratio %g not clearly above IID ratio %g", ratioLRD, ratioIID)
	}
}

func TestSampleDeterministic(t *testing.T) {
	g, err := NewGenerator(0.8, 256)
	if err != nil {
		t.Fatal(err)
	}
	a, err := g.Sample(rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Sample(rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different fGn paths")
		}
	}
}
