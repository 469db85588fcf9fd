package abw

// This file extends the facade with the probe-feature layer and the
// learned estimator's model types: enough surface to extract the
// canonical feature vector from external measurements and evaluate the
// committed weights on it, without importing internal/.

import (
	"context"

	"abw/internal/probe"
	"abw/internal/tools/learned"
)

// Probe-feature layer: the deterministic reduction of a probing stream
// that all tools (and the learned model) share.
type (
	// ProbeSpec describes one probing stream (rate, packet size, count).
	ProbeSpec = probe.StreamSpec
	// ProbeRecord is a delivered stream: send and receive timestamps.
	ProbeRecord = probe.Record
	// FeatureVector is the canonical per-stream feature reduction.
	FeatureVector = probe.FeatureVector
)

// PeriodicProbe describes a constant-rate probing stream.
func PeriodicProbe(rate Rate, pktSize Bytes, count int) ProbeSpec {
	return probe.Periodic(rate, pktSize, count)
}

// Probe sends one probing stream over the transport and returns the
// delivered record, honoring ctx cancellation.
func Probe(ctx context.Context, t Transport, spec ProbeSpec) (*ProbeRecord, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.Probe(spec)
}

// ExtractFeatures reduces a delivered probing stream to the canonical
// feature vector. It never panics and never produces NaN or Inf, no
// matter how degenerate the record (all packets lost, duplicate
// timestamps, single packet).
func ExtractFeatures(r *ProbeRecord) FeatureVector { return probe.ExtractFeatures(r) }

// Learned-estimator model layer.
type (
	// LearnedWeights is the serialized ridge + k-NN model the learned
	// tool runs.
	LearnedWeights = learned.Weights
	// ProbePlan is the probing schedule shared by dataset generation
	// and the online learned estimator; its Probe method is the one
	// loop both run over a transport.
	ProbePlan = learned.ProbePlan
)

// DefaultLearnedWeights returns the committed embedded weights.
func DefaultLearnedWeights() (*LearnedWeights, error) { return learned.Default() }

// LearnedModelInput assembles one model input from a stream's feature
// vector, its probing rate as a fraction of the tight-link capacity,
// and the capacity in Mbps — the exact vector the learned tool builds
// online.
func LearnedModelInput(f FeatureVector, rateFrac, capacityMbps float64) []float64 {
	return learned.ModelInput(f, rateFrac, capacityMbps)
}

// LearnedModelInputNames returns the model input column names.
func LearnedModelInputNames() []string {
	return learned.ModelInputNames()
}
