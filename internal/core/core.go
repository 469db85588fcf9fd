// Package core defines the conceptual layer of the reproduction: the
// avail-bw definitions of the paper's Equations (1)–(3), the two probing
// paradigms (direct, Equation 9; iterative, Equation 10), the estimator
// and transport abstractions every tool implements, the sampling-theory
// facts behind Equation (11), and a machine-readable catalog of the ten
// fallacies and pitfalls.
//
// The Transport interface is the boundary between estimation logic and
// packet delivery: the same estimator code runs over the discrete-event
// simulator (SimTransport) and over real UDP sockets
// (internal/livenet.Transport).
package core

import (
	"fmt"
	"math"
	"time"

	"abw/internal/probe"
	"abw/internal/unit"
)

// Transport sends probing streams over some path and reports what the
// receiver measured. Implementations must deliver streams sequentially:
// a Probe call returns only when the stream has been fully resolved
// (every packet either received or known lost).
type Transport interface {
	// Probe sends one probing stream and returns its record.
	Probe(spec probe.StreamSpec) (*probe.Record, error)
	// Now returns the transport's clock, used for estimation-latency
	// accounting. For the simulator this is virtual time.
	Now() time.Duration
}

// Report is the outcome of one estimation run. Tools that produce a
// variation range (Pathload) set Low < High; point-estimate tools set
// Low = High = Point. Overhead fields let experiments compare tools at
// equal probing budgets, the fair-comparison requirement from the
// paper's summary.
type Report struct {
	// Tool names the estimator that produced the report.
	Tool string `json:"tool"`
	// Point is the headline avail-bw estimate.
	Point unit.Rate `json:"point_bps"`
	// Low and High bound the estimated variation range of the avail-bw
	// process at the probing timescale. This range is NOT a confidence
	// interval for the mean — see Misconceptions[8].
	Low  unit.Rate `json:"low_bps"`
	High unit.Rate `json:"high_bps"`
	// Streams and Packets count the probing effort.
	Streams int `json:"streams"`
	Packets int `json:"packets"`
	// ProbeBytes is the total probing volume (intrusiveness).
	ProbeBytes unit.Bytes `json:"probe_bytes"`
	// Elapsed is the estimation latency on the transport's clock.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Samples holds per-stream avail-bw samples for direct-probing
	// tools; nil for iterative tools, which never sample the process
	// (they only compare rates against it).
	Samples []unit.Rate `json:"samples_bps,omitempty"`
	// Capacity is the tool's own estimate of the tight-link capacity,
	// when the technique produces one (TOPP); zero otherwise.
	Capacity unit.Rate `json:"capacity_bps,omitempty"`
}

// String renders the report the way the tools' CLIs print it.
func (r *Report) String() string {
	if r.Low != r.High {
		return fmt.Sprintf("%s: avail-bw %.2f Mbps (range %.2f–%.2f Mbps, %d streams, %d pkts, %v)",
			r.Tool, r.Point.MbpsOf(), r.Low.MbpsOf(), r.High.MbpsOf(), r.Streams, r.Packets, r.Elapsed)
	}
	return fmt.Sprintf("%s: avail-bw %.2f Mbps (%d streams, %d pkts, %v)",
		r.Tool, r.Point.MbpsOf(), r.Streams, r.Packets, r.Elapsed)
}

// Estimator is one end-to-end avail-bw estimation technique: it probes
// the transport until it converges and infers its estimate from what
// the streams showed. The transport it is handed is the run's (a Run):
// that transport enforces the run's cancellation and budget at stream
// boundaries and counts its cost, and the caller stamps the tool's name
// and that cost on the report, so a tool fills only its estimate.
type Estimator interface {
	Estimate(t Transport) (*Report, error)
}

// Outcome is the JSON shape of one estimation run: the report on
// success, the error text on failure. It exists so that every consumer
// that serializes estimation results — the compare experiment,
// cmd/abwprobe -json — marshals errors the same way in one place (a
// bare error interface would marshal as {}).
type Outcome struct {
	Tool   string  `json:"tool"`
	Report *Report `json:"report,omitempty"`
	Err    string  `json:"error,omitempty"`
}

// NewOutcome captures a run's report and error into the JSON shape.
func NewOutcome(tool string, rep *Report, err error) Outcome {
	o := Outcome{Tool: tool, Report: rep}
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

// --- Sampling theory (Equation 11 and the Figure 1 pitfall) ---

// SampleMeanStdDev returns the standard deviation of the mean of k
// independent samples drawn from a population with the given standard
// deviation: σ/√k (Equation 11).
func SampleMeanStdDev(popStdDev float64, k int) float64 {
	if k <= 0 {
		panic(fmt.Sprintf("core: sample count %d must be positive", k))
	}
	return popStdDev / math.Sqrt(float64(k))
}

// RequiredSamples returns the number of independent samples needed so
// that the standard deviation of the sample mean is at most
// targetRelErr·mean. This is the quantitative content of the paper's
// first pitfall: at τ = 1 ms the answer runs into the hundreds.
func RequiredSamples(popStdDev, mean, targetRelErr float64) (int, error) {
	if popStdDev < 0 || mean <= 0 || targetRelErr <= 0 {
		return 0, fmt.Errorf("core: invalid inputs (σ=%g, mean=%g, target=%g)", popStdDev, mean, targetRelErr)
	}
	k := math.Ceil(math.Pow(popStdDev/(mean*targetRelErr), 2))
	if k < 1 {
		k = 1
	}
	return int(k), nil
}

// IIDVariance applies Equation (4): the variance of the τk-scale process
// given the τ-scale variance, under independence.
func IIDVariance(varTau float64, k int) float64 {
	if k <= 0 {
		panic(fmt.Sprintf("core: aggregation factor %d must be positive", k))
	}
	return varTau / float64(k)
}

// SelfSimilarVariance applies Equation (5): the variance of the τk-scale
// process for an exactly self-similar process with Hurst parameter h.
func SelfSimilarVariance(varTau float64, k int, h float64) float64 {
	if k <= 0 {
		panic(fmt.Sprintf("core: aggregation factor %d must be positive", k))
	}
	if h <= 0.5 || h >= 1 {
		panic(fmt.Sprintf("core: Hurst parameter %g outside (0.5, 1)", h))
	}
	return varTau / math.Pow(float64(k), 2*(1-h))
}
