package exp

import (
	"fmt"
	"math"
	"time"

	"abw/internal/rng"
	"abw/internal/runner"
	"abw/internal/stats"
	"abw/internal/trace"
)

// The variance–timescale study aggregates the finest timescale
// varTimeBase over varTimeLevels dyadic levels, on traces whose
// envelope Hurst parameter is each of varTimeHursts: 0.5 (short-range
// dependent) and 0.8 (LRD like real traffic).
const (
	varTimeBase   = time.Millisecond
	varTimeLevels = 8
)

var varTimeHursts = []float64{0.5, 0.8}

// VarTimeConfig parameterizes the variance–timescale study from the
// paper's Section 1: how Var[A_τ] decays with the averaging timescale,
// and how the decay law depends on the correlation structure
// (Equations 4 and 5) — "largely ignored so far in the avail-bw
// estimation literature".
type VarTimeConfig struct {
	// TraceSpan is the synthetic trace length (default 30 s).
	TraceSpan time.Duration
	Seed      uint64
}

// VarTimeSeries is the variance–timescale relation for one trace.
type VarTimeSeries struct {
	Hurst float64
	// Taus[i] is 2^i ms; Variances[i] is Var[A_τ] in Mbps².
	Taus      []time.Duration
	Variances []float64
	// FittedSlope is the log-log decay slope; Eq. (4) predicts −1,
	// Eq. (5) predicts −2(1−H).
	FittedSlope float64
	// EstimatedHurst is recovered from the slope via H = 1 + slope/2.
	EstimatedHurst float64
}

// VarTimeResult is the study outcome.
type VarTimeResult struct {
	Config VarTimeConfig
	Series []VarTimeSeries
}

// VarianceTimescale measures Var[A_τ] across dyadic timescales on
// synthetic traces with controlled correlation structure, exhibiting
// both decay laws of the paper's Equations (4) and (5): the IID 1/k law
// at H = 0.5 and the slower k^{−2(1−H)} law under long-range dependence.
// Each Hurst parameter synthesizes and analyzes its own trace, so it is
// one runner job.
func VarianceTimescale(c VarTimeConfig) (*VarTimeResult, error) {
	if c.TraceSpan == 0 {
		c.TraceSpan = 30 * time.Second
	}
	res := &VarTimeResult{Config: c}
	out, err := runner.All(len(varTimeHursts), func(hi int) (VarTimeSeries, error) {
		h := varTimeHursts[hi]
		tr, err := trace.SynthesizeFGN(trace.FGNConfig{
			Span:   c.TraceSpan,
			Hurst:  h,
			Window: varTimeBase,
		}, rng.New(c.Seed))
		if err != nil {
			return VarTimeSeries{}, fmt.Errorf("exp: vartime: %w", err)
		}
		base := make([]float64, 0)
		for at := time.Duration(0); at+varTimeBase <= tr.Span; at += varTimeBase {
			base = append(base, tr.AvailBw(at, varTimeBase).MbpsOf())
		}
		series := VarTimeSeries{Hurst: h}
		var lx, ly []float64
		for lvl := 0; lvl < varTimeLevels; lvl++ {
			k := 1 << lvl
			agg := stats.Aggregate(base, k)
			if len(agg) < 4 {
				break
			}
			v := stats.Variance(agg)
			series.Taus = append(series.Taus, varTimeBase*time.Duration(k))
			series.Variances = append(series.Variances, v)
			lx = append(lx, math.Log(float64(k)))
			ly = append(ly, math.Log(v))
		}
		if len(lx) >= 2 {
			if _, slope, _, err := stats.LinearFit(lx, ly); err == nil {
				series.FittedSlope = slope
				hEst := 1 + slope/2
				if hEst < 0 {
					hEst = 0
				}
				if hEst > 1 {
					hEst = 1
				}
				series.EstimatedHurst = hEst
			}
		}
		return series, nil
	})
	if err != nil {
		return nil, err
	}
	res.Series = out
	return res, nil
}

// Table renders the decay laws side by side.
func (r *VarTimeResult) Table() *Table {
	t := &Table{
		Title:  "Equations (4)/(5): variance of A_tau vs averaging timescale",
		Header: []string{"H (config)", "fitted slope", "Eq. prediction", "H (recovered)"},
		Notes: []string{
			"Eq.(4): IID traffic decays as k^-1; Eq.(5): self-similar as k^-2(1-H)",
		},
	}
	for _, s := range r.Series {
		pred := -1.0
		if s.Hurst > 0.5 {
			pred = -2 * (1 - s.Hurst)
		}
		t.Rows = append(t.Rows, []string{
			f2(s.Hurst), f3(s.FittedSlope), f3(pred), f2(s.EstimatedHurst),
		})
	}
	return t
}
