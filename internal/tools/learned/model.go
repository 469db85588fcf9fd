// Package learned implements the eighth estimator: a pure-Go model
// (linear ridge regression blended with k-nearest-neighbors) trained
// offline on the dataset experiment's (features, ground-truth) rows and
// applied online to the same probe.FeatureVector the seven classical
// tools consume. The paper frames every estimator as an ad-hoc mapping
// from probe-stream timing signatures to an avail-bw number; this tool
// makes that mapping explicit and fits it to the scenario catalog
// instead of deriving it from a fluid model.
//
// The model predicts the dimensionless utilization complement A/C from
// dimensionless features, so one set of weights transfers across
// capacities. Weights are serialized JSON (weights.json, committed and
// embedded); scripts/trainlearned regenerates them from the dataset
// experiment.
//
// Defaults (Defaults) are DefaultPlan's: 4 streams (Repeat) of 120
// packets (StreamLen) of 1000 B at each of the 4 rate fractions
// (MaxRounds) 0.3, 0.5, 0.7 and 0.9 of Capacity.
package learned

import (
	"fmt"
	"math"

	"abw/internal/core"
	"abw/internal/probe"
	"abw/internal/unit"
)

// ProbePlan is the probing schedule the dataset generator and the
// online estimator share: input rates as fractions of the tight-link
// capacity, stream shape, and repetitions. The plan is stored inside
// the weight file so the features the model sees online can never
// drift from the ones it was trained on.
type ProbePlan struct {
	// RateFracs are the probed input rates as fractions of C_t.
	RateFracs []float64 `json:"rate_fracs"`
	// StreamLen is packets per probing stream.
	StreamLen int `json:"stream_len"`
	// PktSize is the probe packet size in bytes.
	PktSize unit.Bytes `json:"pkt_size"`
	// StreamsPerFrac is how many streams each rate fraction sends.
	StreamsPerFrac int `json:"streams_per_frac"`
}

// DefaultPlan is the plan the committed weights were trained with:
// four rate fractions spanning the turning point, enough streams per
// fraction that the median prediction shakes off per-stream noise.
func DefaultPlan() ProbePlan {
	return ProbePlan{
		RateFracs:      []float64{0.3, 0.5, 0.7, 0.9},
		StreamLen:      120,
		PktSize:        1000,
		StreamsPerFrac: 4,
	}
}

// Probe runs the plan over t against the tight-link capacity: for
// each rate fraction in order, StreamsPerFrac periodic streams at that
// fraction of capacity, each record handed to visit with its fraction
// and repetition index. A fraction whose rate rounds to zero is
// skipped. The dataset experiment and the online estimator both probe
// here, so training rows and estimates come from one procedure.
func (p ProbePlan) Probe(t core.Transport, capacity unit.Rate, visit func(frac float64, stream int, rec *probe.Record) error) error {
	for _, frac := range p.RateFracs {
		rate := unit.Rate(float64(capacity) * frac)
		if rate <= 0 {
			continue
		}
		spec := probe.Periodic(rate, p.PktSize, p.StreamLen)
		for s := 0; s < p.StreamsPerFrac; s++ {
			rec, err := t.Probe(spec)
			if err != nil {
				return fmt.Errorf("learned: rate %.0f%%: %w", frac*100, err)
			}
			if err := visit(frac, s, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p ProbePlan) validate() error {
	if len(p.RateFracs) == 0 {
		return fmt.Errorf("learned: probe plan has no rate fractions")
	}
	for _, f := range p.RateFracs {
		if !(f > 0 && f <= 1) {
			return fmt.Errorf("learned: rate fraction %g outside (0, 1]", f)
		}
	}
	if p.StreamLen < 2 {
		return fmt.Errorf("learned: stream length %d too short", p.StreamLen)
	}
	if p.PktSize <= 0 {
		return fmt.Errorf("learned: packet size must be positive")
	}
	if p.StreamsPerFrac < 1 {
		return fmt.Errorf("learned: need at least one stream per rate")
	}
	return nil
}

// ModelInput assembles one raw model input from a stream's canonical
// feature vector, the probing rate as a fraction of C_t, and the
// tight-link capacity in Mbps. Training (via the dataset experiment)
// and the online estimator both build inputs here, so they cannot
// drift. Three derived inputs join the raw features:
//
//   - rate_frac: the probed rate R/C — the same feature value means
//     different things at different probing intensities.
//   - log10_capacity: the target A/C is dimensionless, but the
//     queueing-noise features scale with the serialization time, so the
//     model needs to know which capacity regime a stream belongs to.
//   - direct_abw: the fluid-model direct estimate 1 + R/C − gout/gin
//     (the spruce/IGI mapping) when the stream expanded, else 1
//     ("avail-bw is at least the probed rate"). The model learns the
//     per-regime residual corrections to this analytic prior instead of
//     rediscovering the fluid formula from scratch.
func ModelInput(f probe.FeatureVector, rateFrac, capacityMbps float64) []float64 {
	direct := 1.0
	if f.HasGaps && f.GapRatio > 1 {
		direct = 1 + rateFrac - f.GapRatio
	}
	if direct < 0 {
		direct = 0
	}
	return append(f.Values(), rateFrac, math.Log10(capacityMbps), direct)
}

// ModelInputNames returns the input column names matching ModelInput.
func ModelInputNames() []string {
	return append(probe.FeatureNames(), "rate_frac", "log10_capacity", "direct_abw")
}

// Ridge is the linear half of the model: y ≈ intercept + coef·z over
// standardized inputs z.
type Ridge struct {
	Lambda    float64   `json:"lambda"`
	Intercept float64   `json:"intercept"`
	Coef      []float64 `json:"coef"`
}

// KNN is the memory half: standardized training inputs with their
// targets; prediction is the inverse-distance-weighted mean of the K
// nearest rows.
type KNN struct {
	K int         `json:"k"`
	X [][]float64 `json:"x"`
	Y []float64   `json:"y"`
}

// Weights is the serialized model: standardization statistics, both
// model halves, the blend between them, and the probe plan that
// produced the training features.
type Weights struct {
	Schema       string    `json:"schema"`
	Plan         ProbePlan `json:"plan"`
	FeatureNames []string  `json:"feature_names"`
	Mean         []float64 `json:"mean"`
	Std          []float64 `json:"std"`
	Ridge        Ridge     `json:"ridge"`
	KNN          KNN       `json:"knn"`
	// Blend is the ridge weight in the convex combination
	// blend·ridge + (1−blend)·kNN.
	Blend float64 `json:"blend"`
	// Note records training provenance (seed, row counts).
	Note string `json:"note"`
}

// WeightsSchema identifies the weight-file format.
const WeightsSchema = "abw-learned-weights/1"

func (w *Weights) validate() error {
	if w.Schema != WeightsSchema {
		return fmt.Errorf("learned: weight schema %q, want %q", w.Schema, WeightsSchema)
	}
	if err := w.Plan.validate(); err != nil {
		return err
	}
	dim := len(w.Mean)
	if dim == 0 || len(w.Std) != dim || len(w.Ridge.Coef) != dim {
		return fmt.Errorf("learned: inconsistent dimensions (mean %d, std %d, coef %d)",
			len(w.Mean), len(w.Std), len(w.Ridge.Coef))
	}
	for i, s := range w.Std {
		if !(s > 0) {
			return fmt.Errorf("learned: std[%d] = %g, want > 0", i, s)
		}
	}
	if len(w.KNN.X) != len(w.KNN.Y) {
		return fmt.Errorf("learned: kNN has %d inputs but %d targets", len(w.KNN.X), len(w.KNN.Y))
	}
	for i, x := range w.KNN.X {
		if len(x) != dim {
			return fmt.Errorf("learned: kNN row %d has %d dims, want %d", i, len(x), dim)
		}
		if j := nonFinite(x); j >= 0 {
			return fmt.Errorf("learned: kNN x[%d][%d] = %g, want finite", i, j, x[j])
		}
	}
	if len(w.KNN.X) > 0 && w.KNN.K < 1 {
		return fmt.Errorf("learned: kNN needs K >= 1")
	}
	if !(w.Blend >= 0 && w.Blend <= 1) {
		return fmt.Errorf("learned: blend %g outside [0, 1]", w.Blend)
	}
	for _, v := range []struct {
		name string
		xs   []float64
	}{
		{"mean", w.Mean}, {"std", w.Std}, {"ridge coef", w.Ridge.Coef}, {"kNN y", w.KNN.Y},
		{"ridge lambda, intercept", []float64{w.Ridge.Lambda, w.Ridge.Intercept}},
	} {
		if j := nonFinite(v.xs); j >= 0 {
			return fmt.Errorf("learned: %s[%d] = %g, want finite", v.name, j, v.xs[j])
		}
	}
	return nil
}

// nonFinite returns the index of the first NaN or ±Inf in xs, or -1.
func nonFinite(xs []float64) int {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}

// standardize maps a raw input to z-scores under the stored statistics.
func (w *Weights) standardize(x []float64) []float64 {
	z := make([]float64, len(x))
	for i := range x {
		z[i] = (x[i] - w.Mean[i]) / w.Std[i]
	}
	return z
}

// Predict maps one raw model input (feature values plus the probing
// rate fraction) to a predicted A/C in [0, 1].
func (w *Weights) Predict(x []float64) (float64, error) {
	if len(x) != len(w.Mean) {
		return 0, fmt.Errorf("learned: input has %d dims, model wants %d", len(x), len(w.Mean))
	}
	z := w.standardize(x)
	y := w.Ridge.Intercept
	for i, c := range w.Ridge.Coef {
		y += c * z[i]
	}
	if len(w.KNN.X) > 0 {
		y = w.Blend*y + (1-w.Blend)*w.knnPredict(z)
	}
	if y < 0 {
		y = 0
	}
	if y > 1 {
		y = 1
	}
	return y, nil
}

// knnPredict is the inverse-distance-weighted mean of the K nearest
// training rows. Ties in distance resolve by row index, keeping the
// prediction deterministic.
func (w *Weights) knnPredict(z []float64) float64 {
	type cand struct {
		d2  float64
		idx int
	}
	k := w.KNN.K
	if k > len(w.KNN.X) {
		k = len(w.KNN.X)
	}
	// best holds the k nearest rows so far, ascending by (d2, idx). Rows
	// arrive in index order, so a row tying an entry sorts after it.
	best := make([]cand, 0, k)
	for i, row := range w.KNN.X {
		var d2 float64
		for j := range row {
			d := z[j] - row[j]
			d2 += d * d
		}
		if len(best) == k {
			if d2 >= best[k-1].d2 {
				continue
			}
			best = best[:k-1]
		}
		at := len(best)
		for at > 0 && d2 < best[at-1].d2 {
			at--
		}
		best = append(best, cand{})
		copy(best[at+1:], best[at:])
		best[at] = cand{d2, i}
	}
	var num, den float64
	for _, c := range best {
		wt := 1 / (math.Sqrt(c.d2) + 1e-9)
		num += wt * w.KNN.Y[c.idx]
		den += wt
	}
	return num / den
}

// TrainConfig tunes Train. Zero fields take defaults.
type TrainConfig struct {
	// Lambda is the ridge penalty (default 1.0).
	Lambda float64
	// K is the kNN neighborhood (default 5).
	K int
	// Blend is the ridge weight in the final prediction (default 0.3:
	// the memory half dominates, the linear half regularizes
	// extrapolation).
	Blend float64
	// MaxKNNRows bounds the stored kNN memory; training rows beyond it
	// are thinned by a deterministic stride (default 1200).
	MaxKNNRows int
	// Plan records the probe plan the features came from (required).
	Plan ProbePlan
	// FeatureNames documents the input columns (required).
	FeatureNames []string
	// Note records provenance.
	Note string
}

// Train fits the ridge + kNN model on raw inputs X (one row per probe
// stream: feature values plus rate fraction) and targets y (A/C). It is
// deterministic: same inputs, same weights.
func Train(X [][]float64, y []float64, cfg TrainConfig) (*Weights, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("learned: need matching non-empty X (%d) and y (%d)", len(X), len(y))
	}
	dim := len(X[0])
	for i, row := range X {
		if len(row) != dim {
			return nil, fmt.Errorf("learned: row %d has %d dims, want %d", i, len(row), dim)
		}
	}
	if len(cfg.FeatureNames) != dim {
		return nil, fmt.Errorf("learned: %d feature names for %d dims", len(cfg.FeatureNames), dim)
	}
	if err := cfg.Plan.validate(); err != nil {
		return nil, err
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 1.0
	}
	if cfg.K == 0 {
		cfg.K = 5
	}
	if cfg.Blend == 0 {
		cfg.Blend = 0.3
	}
	if cfg.MaxKNNRows == 0 {
		cfg.MaxKNNRows = 1200
	}

	w := &Weights{
		Schema:       WeightsSchema,
		Plan:         cfg.Plan,
		FeatureNames: append([]string(nil), cfg.FeatureNames...),
		Blend:        cfg.Blend,
		Note:         cfg.Note,
	}

	// Standardization statistics; constant columns get unit scale so
	// they contribute nothing instead of dividing by zero.
	w.Mean = make([]float64, dim)
	w.Std = make([]float64, dim)
	n := float64(len(X))
	for j := 0; j < dim; j++ {
		var s float64
		for _, row := range X {
			s += row[j]
		}
		w.Mean[j] = s / n
		var ss float64
		for _, row := range X {
			d := row[j] - w.Mean[j]
			ss += d * d
		}
		w.Std[j] = math.Sqrt(ss / n)
		if w.Std[j] == 0 {
			w.Std[j] = 1
		}
	}
	Z := make([][]float64, len(X))
	for i, row := range X {
		Z[i] = w.standardize(row)
	}

	// Ridge via the normal equations on centered targets:
	// (Z'Z + λI) coef = Z'(y − ȳ), intercept = ȳ.
	var ymean float64
	for _, v := range y {
		ymean += v
	}
	ymean /= n
	a := make([][]float64, dim)
	b := make([]float64, dim)
	for j := 0; j < dim; j++ {
		a[j] = make([]float64, dim)
		for l := 0; l <= j; l++ {
			var s float64
			for i := range Z {
				s += Z[i][j] * Z[i][l]
			}
			a[j][l] = s
			if l < j {
				a[l][j] = s
			}
		}
		a[j][j] += cfg.Lambda
		var s float64
		for i := range Z {
			s += Z[i][j] * (y[i] - ymean)
		}
		b[j] = s
	}
	coef, err := solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("learned: ridge solve: %w", err)
	}
	w.Ridge = Ridge{Lambda: cfg.Lambda, Intercept: ymean, Coef: coef}

	// kNN memory: all standardized training rows, thinned by stride when
	// over budget, values rounded so the JSON round-trip is exact.
	stride := 1
	if len(Z) > cfg.MaxKNNRows {
		stride = (len(Z) + cfg.MaxKNNRows - 1) / cfg.MaxKNNRows
	}
	for i := 0; i < len(Z); i += stride {
		w.KNN.X = append(w.KNN.X, roundSlice(Z[i]))
		w.KNN.Y = append(w.KNN.Y, round6(y[i]))
	}
	w.KNN.K = cfg.K
	w.Ridge.Intercept = round6(w.Ridge.Intercept)
	w.Ridge.Coef = roundSlice(w.Ridge.Coef)
	w.Mean = roundSlice(w.Mean)
	w.Std = roundSlice(w.Std)
	return w, w.validate()
}

// solve performs Gaussian elimination with partial pivoting on a·x = b,
// destroying a and b.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if a[piv][col] == 0 {
			return nil, fmt.Errorf("singular system at column %d", col)
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

// round6 rounds to 6 significant digits: enough precision for the
// model, compact and exactly JSON-round-trippable in the weight file.
func round6(v float64) float64 {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	mag := math.Pow(10, 5-math.Floor(math.Log10(math.Abs(v))))
	return math.Round(v*mag) / mag
}

func roundSlice(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = round6(v)
	}
	return out
}
