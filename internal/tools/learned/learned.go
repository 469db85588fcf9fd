package learned

import (
	_ "embed"
	"fmt"
	"sync"

	"abw/internal/core"
	"abw/internal/probe"
	"abw/internal/stats"
	"abw/internal/unit"
)

// weights.json is the committed trained model; scripts/trainlearned
// regenerates it from the dataset experiment.
//
//go:embed weights.json
var embeddedWeights []byte

var (
	defaultOnce    sync.Once
	defaultWeights *Weights
	defaultErr     error
)

// Default returns the embedded trained weights, parsed once.
func Default() (*Weights, error) {
	defaultOnce.Do(func() {
		defaultWeights, defaultErr = Parse(embeddedWeights)
	})
	return defaultWeights, defaultErr
}

// Parse decodes and validates a weight file.
func Parse(data []byte) (*Weights, error) {
	w, err := decodeWeights(data)
	if err != nil {
		return nil, err
	}
	if err := w.validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// Defaults returns the learned tool's settings: the probe plan its
// weights were trained with (DefaultPlan).
func Defaults() core.Params {
	plan := DefaultPlan()
	return core.Params{
		PktSize:   plan.PktSize,
		StreamLen: plan.StreamLen,
		Repeat:    plan.StreamsPerFrac,
		MaxRounds: len(plan.RateFracs),
	}
}

// Estimator is the learned eighth tool.
type Estimator struct {
	capacity unit.Rate // assumed tight-link capacity C_t
	plan     ProbePlan // the weights' plan, reshaped by the Params
	w        *Weights
}

// New validates p, with zero fields taken from Defaults, and returns
// the estimator, which runs the embedded weights (Default). Capacity is
// required: the model predicts the dimensionless A/C and scales by it,
// and the plan's rate fractions are fractions of it. Repeat is the
// streams per rate fraction; MaxRounds caps the rate fractions probed,
// in plan order.
func New(p core.Params) (*Estimator, error) {
	w, err := Default()
	if err != nil {
		return nil, err
	}
	p = p.WithDefaults(Defaults())
	if !(p.Capacity > 0) {
		return nil, fmt.Errorf("learned: tight-link capacity is required (the model predicts A/C)")
	}
	if p.StreamLen < 2 {
		return nil, fmt.Errorf("learned: stream length %d too short", p.StreamLen)
	}
	if p.PktSize <= 0 {
		return nil, fmt.Errorf("learned: packet size must be positive")
	}
	if p.Repeat < 1 {
		return nil, fmt.Errorf("learned: need at least one stream per rate")
	}
	if p.MaxRounds < 1 {
		return nil, fmt.Errorf("learned: need at least one rate fraction")
	}
	return &Estimator{capacity: p.Capacity, w: w, plan: ProbePlan{
		RateFracs:      w.Plan.RateFracs[:min(p.MaxRounds, len(w.Plan.RateFracs))],
		StreamLen:      p.StreamLen,
		PktSize:        p.PktSize,
		StreamsPerFrac: p.Repeat,
	}}, nil
}

// Estimate implements core.Estimator: run the probe plan (periodic
// streams at fixed fractions of C_t), extract the canonical
// FeatureVector per stream, and take the median of the model's
// per-stream A/C predictions. One prediction per stream keeps the
// online inputs exactly shaped like the training rows.
func (e *Estimator) Estimate(t core.Transport) (*core.Report, error) {
	var preds []float64
	var samples []unit.Rate
	err := e.plan.Probe(t, e.capacity, func(frac float64, _ int, rec *probe.Record) error {
		y, err := e.w.Predict(ModelInput(probe.ExtractFeatures(rec), frac, e.capacity.MbpsOf()))
		if err != nil {
			return err
		}
		preds = append(preds, y)
		samples = append(samples, probe.ClampToCapacity(unit.Rate(y*float64(e.capacity)), e.capacity))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(preds) == 0 {
		return nil, fmt.Errorf("learned: probe plan produced no streams")
	}
	// Median over per-stream predictions: streams probing far from the
	// turning point carry little information and occasionally wild
	// predictions; the median keeps them from dragging the point.
	min, max := stats.MinMax(preds)
	point := probe.ClampToCapacity(unit.Rate(stats.Median(preds)*float64(e.capacity)), e.capacity)
	return &core.Report{
		Point:   point,
		Low:     probe.ClampToCapacity(unit.Rate(min*float64(e.capacity)), e.capacity),
		High:    probe.ClampToCapacity(unit.Rate(max*float64(e.capacity)), e.capacity),
		Samples: samples,
	}, nil
}

var _ core.Estimator = (*Estimator)(nil)
