package fgn

import (
	"math"
	"sync"
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

func memoLen() int {
	memoMu.Lock()
	defer memoMu.Unlock()
	return len(memo)
}

func TestNewGeneratorValidation(t *testing.T) {
	before := memoLen()
	for _, h := range []float64{0, 1, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		if _, err := NewGenerator(h, 100); err == nil {
			t.Errorf("NewGenerator(h=%g) accepted invalid Hurst", h)
		}
	}
	if _, err := NewGenerator(0.8, 0); err == nil {
		t.Error("NewGenerator(n=0) accepted")
	}
	if after := memoLen(); after != before {
		t.Errorf("invalid arguments added %d memo entries", after-before)
	}
}

// repoKeys are the (H, n) pairs the repository asks for: n is the trace
// span over the 10 ms default modulation window (1 ms for vartime).
var repoKeys = []struct {
	what string
	h    float64
	n    int
}{
	{"catalog lrd hop (30 s)", 0.8, 3000},
	{"fig1 -quick (10 s)", 0.8, 1000},
	{"fig6 (20 s)", 0.8, 2000},
	{"vartime H=0.5", 0.5, 30000},
	{"vartime H=0.8", 0.8, 30000},
	{"vartime -quick H=0.5", 0.5, 15000},
	{"vartime -quick H=0.8", 0.8, 15000},
}

// samplesEqual reports whether two paths are identical bit for bit.
func samplesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMemoMatchesFactorize holds the memoised generator to the uncached
// construction: the same spectrum and the same paths at seeds 1–5, for
// every (H, n) the repository creates. Each key is asked for twice, so
// the second lookup is a hit.
func TestMemoMatchesFactorize(t *testing.T) {
	for _, k := range repoKeys {
		want, err := factorize(k.h, k.n)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGenerator(k.h, k.n)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := NewGenerator(k.h, k.n); again != g {
			t.Errorf("%s: second lookup returned a different generator", k.what)
		}
		if g.n != want.n || g.m != want.m || !samplesEqual(g.sqrt, want.sqrt) {
			t.Errorf("%s: memoised spectrum differs from factorize(%g, %d)", k.what, k.h, k.n)
			continue
		}
		for seed := uint64(1); seed <= 5; seed++ {
			a, err := g.Sample(rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			b, err := want.Sample(rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if !samplesEqual(a, b) {
				t.Errorf("%s: seed %d path differs from the uncached generator's", k.what, seed)
			}
		}
	}
}

// TestMemoConcurrent has 8 goroutines ask for one fresh key at once and
// sample the shared generator concurrently: under -race this is the
// memo's and Sample's data-race check.
func TestMemoConcurrent(t *testing.T) {
	const h, n, workers = 0.77, 1234, 8
	oracle, err := factorize(h, n)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, workers)
	for i := range want {
		if want[i], err = oracle.Sample(rng.New(uint64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	gens := make([]*Generator, workers)
	got := make([][]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if gens[i], errs[i] = NewGenerator(h, n); errs[i] != nil {
				return
			}
			got[i], errs[i] = gens[i].Sample(rng.New(uint64(i + 1)))
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if gens[i] != gens[0] {
			t.Errorf("worker %d got a different generator", i)
		}
		if !samplesEqual(got[i], want[i]) {
			t.Errorf("worker %d: path differs from the uncached generator's", i)
		}
	}
}

// BenchmarkNewGenerator measures the LRD compile's spectrum rung at the
// catalog's (0.8, 3000): the uncached factorization and a memo hit.
func BenchmarkNewGenerator(b *testing.B) {
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := factorize(0.8, 3000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memo-hit", func(b *testing.B) {
		if _, err := NewGenerator(0.8, 3000); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewGenerator(0.8, 3000); err != nil {
				b.Fatal(err)
			}
		}
	})
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
