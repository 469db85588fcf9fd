package learned

import (
	"context"
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

// Config tunes the estimator, which runs the embedded weights (Default).
// Zero fields take the weight file's probe plan.
type Config struct {
	// Capacity is the assumed tight-link capacity C_t (required): the
	// model predicts the dimensionless A/C and scales by it, and the
	// probe plan's rate fractions are fractions of it.
	Capacity unit.Rate
	// StreamLen overrides the plan's packets per stream.
	StreamLen int
	// PktSize overrides the plan's probe packet size.
	PktSize unit.Bytes
	// StreamsPerFrac overrides the plan's streams per rate fraction.
	StreamsPerFrac int
}

func (c Config) withDefaults(w *Weights) (Config, error) {
	if !(c.Capacity > 0) {
		return c, fmt.Errorf("learned: tight-link capacity is required (the model predicts A/C)")
	}
	if c.StreamLen == 0 {
		c.StreamLen = w.Plan.StreamLen
	}
	if c.StreamLen < 2 {
		return c, fmt.Errorf("learned: stream length %d too short", c.StreamLen)
	}
	if c.PktSize == 0 {
		c.PktSize = w.Plan.PktSize
	}
	if c.PktSize <= 0 {
		return c, fmt.Errorf("learned: packet size must be positive")
	}
	if c.StreamsPerFrac == 0 {
		c.StreamsPerFrac = w.Plan.StreamsPerFrac
	}
	if c.StreamsPerFrac < 1 {
		return c, fmt.Errorf("learned: need at least one stream per rate")
	}
	return c, nil
}

// Estimator is the learned eighth tool.
type Estimator struct {
	cfg Config
	w   *Weights
}

// New validates the configuration and returns the estimator.
func New(cfg Config) (*Estimator, error) {
	w, err := Default()
	if err != nil {
		return nil, err
	}
	c, err := cfg.withDefaults(w)
	if err != nil {
		return nil, err
	}
	return &Estimator{cfg: c, w: w}, nil
}

// Name implements core.Estimator.
func (e *Estimator) Name() string { return "learned" }

// Estimate implements core.Estimator: run the weight file's probe plan
// (periodic streams at fixed fractions of C_t), extract the canonical
// FeatureVector per stream, and take the median of the model's
// per-stream A/C predictions. One prediction per stream keeps the
// online inputs exactly shaped like the training rows.
func (e *Estimator) Estimate(ctx context.Context, t core.Transport) (*core.Report, error) {
	c := e.cfg
	start := t.Now()
	var preds []float64
	var samples []unit.Rate
	var streams, packets int
	var bytes unit.Bytes
	for _, frac := range e.w.Plan.RateFracs {
		rate := unit.Rate(float64(c.Capacity) * frac)
		if rate <= 0 {
			continue
		}
		spec := probe.Periodic(rate, c.PktSize, c.StreamLen)
		for s := 0; s < c.StreamsPerFrac; s++ {
			rec, err := core.Probe(ctx, t, spec)
			if err != nil {
				return nil, fmt.Errorf("learned: rate %.0f%%: %w", frac*100, err)
			}
			streams++
			packets += spec.Count
			bytes += spec.Bytes()
			x := ModelInput(probe.ExtractFeatures(rec), frac, c.Capacity.MbpsOf())
			y, err := e.w.Predict(x)
			if err != nil {
				return nil, err
			}
			preds = append(preds, y)
			samples = append(samples, probe.ClampToCapacity(unit.Rate(y*float64(c.Capacity)), c.Capacity))
		}
	}
	if len(preds) == 0 {
		return nil, fmt.Errorf("learned: probe plan produced no streams")
	}
	// Median over per-stream predictions: streams probing far from the
	// turning point carry little information and occasionally wild
	// predictions; the median keeps them from dragging the point.
	min, max := stats.MinMax(preds)
	point := probe.ClampToCapacity(unit.Rate(stats.Median(preds)*float64(c.Capacity)), c.Capacity)
	return &core.Report{
		Tool:       e.Name(),
		Point:      point,
		Low:        probe.ClampToCapacity(unit.Rate(min*float64(c.Capacity)), c.Capacity),
		High:       probe.ClampToCapacity(unit.Rate(max*float64(c.Capacity)), c.Capacity),
		Streams:    streams,
		Packets:    packets,
		ProbeBytes: bytes,
		Elapsed:    t.Now() - start,
		Samples:    samples,
	}, nil
}

var _ core.Estimator = (*Estimator)(nil)
