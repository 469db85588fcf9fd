package learned

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"

	"abw/internal/rng"
)

// trainCase builds a noiseless linear problem y = 0.5 + 0.2·x0 − 0.1·x1
// plus a constant column, the degenerate case standardization must
// survive.
func trainCase() ([][]float64, []float64) {
	var X [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		x0 := float64(i) / 40
		x1 := float64(i%7) / 7
		X = append(X, []float64{x0, x1, 1})
		y = append(y, 0.5+0.2*x0-0.1*x1)
	}
	return X, y
}

func testPlan() ProbePlan {
	return ProbePlan{RateFracs: []float64{0.5}, StreamLen: 20, PktSize: 1000, StreamsPerFrac: 1}
}

func TestTrainRecoversLinearMap(t *testing.T) {
	X, y := trainCase()
	w, err := Train(X, y, TrainConfig{
		Lambda: 1e-6, Blend: 1, // pure ridge, negligible penalty
		Plan: testPlan(), FeatureNames: []string{"x0", "x1", "const"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		got, err := w.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-y[i]) > 1e-3 {
			t.Fatalf("row %d: predict %.5f, want %.5f", i, got, y[i])
		}
	}
	// The constant column must carry no weight.
	if c := w.Ridge.Coef[2]; math.Abs(c) > 1e-9 {
		t.Errorf("constant column coefficient = %g, want 0", c)
	}
}

func TestTrainDeterministic(t *testing.T) {
	X, y := trainCase()
	cfg := TrainConfig{Plan: testPlan(), FeatureNames: []string{"x0", "x1", "const"}}
	a, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two trainings on identical data differ")
	}
}

// TestWeightsJSONRoundTrip pins the round6 contract: serializing the
// trained weights and parsing them back must reproduce bit-identical
// predictions — the committed weight file IS the model.
func TestWeightsJSONRoundTrip(t *testing.T) {
	X, y := trainCase()
	w, err := Train(X, y, TrainConfig{Plan: testPlan(), FeatureNames: []string{"x0", "x1", "const"}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range X {
		a, _ := w.Predict(x)
		b, _ := back.Predict(x)
		if a != b {
			t.Fatalf("prediction changed across JSON round-trip: %v vs %v", a, b)
		}
	}
}

func TestPredictClampsToUnitInterval(t *testing.T) {
	w := &Weights{
		Schema: WeightsSchema, Plan: testPlan(),
		FeatureNames: []string{"x"},
		Mean:         []float64{0}, Std: []float64{1},
		Ridge: Ridge{Intercept: 0, Coef: []float64{10}},
		Blend: 1,
	}
	if err := w.validate(); err != nil {
		t.Fatal(err)
	}
	if y, _ := w.Predict([]float64{5}); y != 1 {
		t.Errorf("predict(5) = %g, want clamp to 1", y)
	}
	if y, _ := w.Predict([]float64{-5}); y != 0 {
		t.Errorf("predict(-5) = %g, want clamp to 0", y)
	}
}

func TestKNNInterpolatesAndBreaksTiesDeterministically(t *testing.T) {
	w := &Weights{
		Schema: WeightsSchema, Plan: testPlan(),
		FeatureNames: []string{"x"},
		Mean:         []float64{0}, Std: []float64{1},
		Ridge: Ridge{Intercept: 0, Coef: []float64{0}},
		KNN: KNN{
			K: 2,
			X: [][]float64{{-1}, {1}, {3}},
			Y: []float64{0.2, 0.4, 0.9},
		},
		Blend: 0, // pure kNN
	}
	if err := w.validate(); err != nil {
		t.Fatal(err)
	}
	// Query at 0: equidistant from −1 and 1 → equal weights → mean.
	y, err := w.Predict([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y-0.3) > 1e-9 {
		t.Errorf("equidistant kNN = %g, want 0.3", y)
	}
	// Query exactly on a memory row: that row dominates.
	y, _ = w.Predict([]float64{3})
	if math.Abs(y-0.9) > 1e-6 {
		t.Errorf("on-row kNN = %g, want ≈0.9", y)
	}
}

// knnFullSort is the definition knnPredict's selection must reproduce
// bit for bit: order every row by (distance, index), weigh the first K.
func knnFullSort(w *Weights, z []float64) float64 {
	idx := make([]int, len(w.KNN.X))
	d2 := make([]float64, len(w.KNN.X))
	for i, row := range w.KNN.X {
		idx[i] = i
		for j := range row {
			d := z[j] - row[j]
			d2[i] += d * d
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		if d2[idx[a]] != d2[idx[b]] {
			return d2[idx[a]] < d2[idx[b]]
		}
		return idx[a] < idx[b]
	})
	var num, den float64
	for _, i := range idx[:min(w.KNN.K, len(idx))] {
		wt := 1 / (math.Sqrt(d2[i]) + 1e-9)
		num += wt * w.KNN.Y[i]
		den += wt
	}
	return num / den
}

func TestKNNSelectionMatchesFullSort(t *testing.T) {
	r := rng.New(7)
	for _, k := range []int{1, 2, 5, 40, 64} {
		w := &Weights{KNN: KNN{K: k}}
		for i := 0; i < 40; i++ {
			// Coordinates on a coarse grid: many rows tie in distance,
			// some are exact duplicates.
			row := []float64{math.Round(4 * r.Float64()), math.Round(4 * r.Float64())}
			w.KNN.X = append(w.KNN.X, row)
			w.KNN.Y = append(w.KNN.Y, r.Float64())
		}
		for q := 0; q < 50; q++ {
			z := []float64{math.Round(4 * r.Float64()), 4 * r.Float64()}
			if got, want := w.knnPredict(z), knnFullSort(w, z); got != want {
				t.Fatalf("k=%d query %v: selection %v, full sort %v", k, z, got, want)
			}
		}
	}
}

func TestTrainThinsKNNMemory(t *testing.T) {
	var X [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		X = append(X, []float64{float64(i)})
		y = append(y, float64(i)/100)
	}
	w, err := Train(X, y, TrainConfig{MaxKNNRows: 10, Plan: testPlan(), FeatureNames: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.KNN.X) > 10 {
		t.Errorf("kNN memory %d rows, budget 10", len(w.KNN.X))
	}
}

func TestValidateRejectsBadWeights(t *testing.T) {
	base := func() *Weights {
		return &Weights{
			Schema: WeightsSchema, Plan: testPlan(),
			FeatureNames: []string{"x"},
			Mean:         []float64{0}, Std: []float64{1},
			Ridge: Ridge{Coef: []float64{0}},
			Blend: 0.5,
		}
	}
	cases := []struct {
		name   string
		break_ func(*Weights)
	}{
		{"schema", func(w *Weights) { w.Schema = "nope" }},
		{"dims", func(w *Weights) { w.Std = nil }},
		{"std-zero", func(w *Weights) { w.Std[0] = 0 }},
		{"std-negative", func(w *Weights) { w.Std[0] = -1 }},
		{"blend", func(w *Weights) { w.Blend = 2 }},
		{"knn-shape", func(w *Weights) { w.KNN = KNN{K: 1, X: [][]float64{{1, 2}}, Y: []float64{0}} }},
		{"knn-k", func(w *Weights) { w.KNN = KNN{K: 0, X: [][]float64{{1}}, Y: []float64{0}} }},
		{"plan", func(w *Weights) { w.Plan.RateFracs = []float64{2} }},
		{"nan-rate-frac", func(w *Weights) { w.Plan.RateFracs = []float64{math.NaN()} }},
		{"nan-blend", func(w *Weights) { w.Blend = math.NaN() }},
		{"inf-mean", func(w *Weights) { w.Mean[0] = math.Inf(1) }},
		{"inf-std", func(w *Weights) { w.Std[0] = math.Inf(1) }},
		{"nan-coef", func(w *Weights) { w.Ridge.Coef[0] = math.NaN() }},
		{"nan-intercept", func(w *Weights) { w.Ridge.Intercept = math.NaN() }},
		{"nan-knn-x", func(w *Weights) { w.KNN = KNN{K: 1, X: [][]float64{{math.NaN()}}, Y: []float64{0}} }},
		{"inf-knn-y", func(w *Weights) { w.KNN = KNN{K: 1, X: [][]float64{{1}}, Y: []float64{math.Inf(-1)}} }},
	}
	for _, tc := range cases {
		w := base()
		tc.break_(w)
		if err := w.validate(); err == nil {
			t.Errorf("%s: bad weights accepted", tc.name)
		}
	}
}

func TestTrainRejectsBadShapes(t *testing.T) {
	plan := testPlan()
	if _, err := Train(nil, nil, TrainConfig{Plan: plan}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []float64{0, 1}, TrainConfig{Plan: plan, FeatureNames: []string{"x"}}); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := Train([][]float64{{1}}, []float64{0}, TrainConfig{Plan: plan, FeatureNames: []string{"a", "b"}}); err == nil {
		t.Error("name/dim mismatch accepted")
	}
}

func TestRound6(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{1.23456789, 1.23457},
		{-1.23456789, -1.23457},
		{0.000123456789, 0.000123457},
		{123456789, 123457000},
	}
	for _, tc := range cases {
		if got := round6(tc.in); got != tc.want {
			t.Errorf("round6(%g) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

func TestDefaultWeightsParse(t *testing.T) {
	w, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Mean) != len(w.FeatureNames) {
		t.Errorf("embedded weights: %d means, %d names", len(w.Mean), len(w.FeatureNames))
	}
}
