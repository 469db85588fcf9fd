package exp

import (
	"fmt"
	"time"

	"abw/internal/rng"
	"abw/internal/runner"
	"abw/internal/stats"
	"abw/internal/trace"
)

// Figure 1 averages k = fig1K Poisson samples of the avail-bw process
// (the paper's choice) at each averaging timescale of fig1Taus.
var fig1Taus = []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond}

const fig1K = 20

// Figure1Config parameterizes the sampling-variability experiment:
// "ignoring the variability of the avail-bw process".
type Figure1Config struct {
	// Trials is the number of sample means per CDF (default 400).
	Trials int
	// TraceSpan is the synthetic trace length (default 30 s).
	TraceSpan time.Duration
	// Seed drives trace synthesis and sampling.
	Seed uint64
}

// Figure1Series is the error CDF for one averaging timescale.
type Figure1Series struct {
	Tau time.Duration
	// Errors are the per-trial relative errors ε of the k-sample mean.
	Errors []float64
	// CDF summarizes them.
	CDF *stats.CDF
}

// WithinPct returns the fraction of trials with |ε| below the bound.
func (s *Figure1Series) WithinPct(bound float64) float64 {
	n := 0
	for _, e := range s.Errors {
		if e >= -bound && e <= bound {
			n++
		}
	}
	return float64(n) / float64(len(s.Errors))
}

// Figure1Result is the full experiment outcome.
type Figure1Result struct {
	Config Figure1Config
	// TrueMeanMbps is the trace's long-run avail-bw.
	TrueMeanMbps float64
	Series       []Figure1Series
}

// Figure1 regenerates the paper's Figure 1: the CDF of the relative
// error of the 20-sample Poisson-sampled mean of the avail-bw process,
// at three averaging timescales, on a bursty LRD trace. The paper's
// claim: at τ = 1 ms the errors are large; at τ ≥ 10 ms they tighten —
// pure sampling variability, with every sample individually exact.
//
// Each (tau, trial) cell is one runner job: the trace is shared
// read-only, and every trial derives its own sampling stream from the
// experiment seed and its indices, so the result is identical at every
// worker count.
func Figure1(c Figure1Config) (*Figure1Result, error) {
	if c.Trials == 0 {
		c.Trials = 400
	}
	if c.TraceSpan == 0 {
		c.TraceSpan = 30 * time.Second
	}
	root := rng.New(c.Seed)
	tr, err := trace.SynthesizeFGN(trace.FGNConfig{Span: c.TraceSpan}, root.Split("trace"))
	if err != nil {
		return nil, fmt.Errorf("exp: figure1: %w", err)
	}
	trueMean := float64(tr.Capacity-tr.MeanRate()) / 1e6
	res := &Figure1Result{Config: c, TrueMeanMbps: trueMean}
	errs, err := runner.All(len(fig1Taus)*c.Trials, func(job int) (float64, error) {
		ti, trial := job/c.Trials, job%c.Trials
		r := rng.Derive(c.Seed, fmt.Sprintf("fig1/sampling/tau%d/trial%d", ti, trial))
		samples, err := tr.PoissonSample(fig1Taus[ti], fig1K, r)
		if err != nil {
			return 0, fmt.Errorf("exp: figure1: %w", err)
		}
		var mean float64
		for _, s := range samples {
			mean += s.MbpsOf()
		}
		mean /= float64(len(samples))
		return stats.RelativeError(mean, trueMean), nil
	})
	if err != nil {
		return nil, err
	}
	for ti, tau := range fig1Taus {
		tauErrs := errs[ti*c.Trials : (ti+1)*c.Trials]
		res.Series = append(res.Series, Figure1Series{Tau: tau, Errors: tauErrs, CDF: stats.NewCDF(tauErrs)})
	}
	return res, nil
}

// Table renders the result in the rows the figure's discussion uses.
func (r *Figure1Result) Table() *Table {
	t := &Table{
		Title:  "Figure 1: relative error of the k=20 sample mean (Poisson sampling)",
		Header: []string{"tau", "P(|eps|<5%)", "q05", "q25", "median", "q75", "q95"},
		Notes: []string{
			fmt.Sprintf("trace: OC-3-like synthetic, mean avail-bw %.1f Mbps, %d trials", r.TrueMeanMbps, r.Config.Trials),
			"paper: errors significant below tau=10ms; hundreds of samples needed at 1ms for eps<5%",
		},
	}
	for _, s := range r.Series {
		t.Rows = append(t.Rows, []string{
			s.Tau.String(),
			pct(s.WithinPct(0.05)),
			f3(s.CDF.Quantile(0.05)),
			f3(s.CDF.Quantile(0.25)),
			f3(s.CDF.Quantile(0.50)),
			f3(s.CDF.Quantile(0.75)),
			f3(s.CDF.Quantile(0.95)),
		})
	}
	return t
}
