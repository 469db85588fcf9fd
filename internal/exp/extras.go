package exp

import (
	"fmt"
	"math"
	"time"

	"abw/internal/fluid"
	"abw/internal/probe"
	"abw/internal/runner"
	"abw/internal/scenario"
	"abw/internal/stats"
	"abw/internal/unit"
)

// The latency/accuracy grid: stream durations, and the number of
// streams averaged per estimate.
var (
	latencyDurations = []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond}
	latencyCounts    = []int{5, 20, 80}
)

// LatencyAccuracyConfig parameterizes the "faster estimation is better"
// fallacy study: a grid over stream count and stream duration, measuring
// the error of direct probing at Ri = 40 Mbps over the paper's single
// hop against total probing time.
type LatencyAccuracyConfig struct {
	Trials int // error samples per cell, default 15
	Seed   uint64
}

// LatencyAccuracyCell is one (duration, count) grid point.
type LatencyAccuracyCell struct {
	Duration time.Duration
	Streams  int
	// ProbingTime is the total virtual time spent probing.
	ProbingTime time.Duration
	// RMSError is the root-mean-square relative error across trials.
	RMSError float64
}

// LatencyAccuracyResult is the study outcome.
type LatencyAccuracyResult struct {
	Config LatencyAccuracyConfig
	Cells  []LatencyAccuracyCell
}

// LatencyAccuracy quantifies the estimation latency/accuracy tradeoff:
// fewer or shorter streams finish sooner but err more, because shorter
// streams mean a smaller averaging timescale (larger population
// variance) and fewer streams mean fewer samples (Equation 11).
// Every (duration, count, trial) cell is one runner job with its own
// simulator, seeded — as before the refactor — from the experiment seed
// and the three indices. Per-cell aggregation happens afterwards in
// index order, so the floating-point summation order (and hence the
// result) is identical at every worker count.
func LatencyAccuracy(c LatencyAccuracyConfig) (*LatencyAccuracyResult, error) {
	if c.Trials == 0 {
		c.Trials = 15
	}
	res := &LatencyAccuracyResult{Config: c}
	trueA := (paperCapacity - paperCrossRate).MbpsOf()
	type trialOut struct {
		probing time.Duration
		sq      float64
		ok      bool
	}
	jobs := len(latencyDurations) * len(latencyCounts) * c.Trials
	outs, err := runner.All(jobs, func(job int) (trialOut, error) {
		di := job / (len(latencyCounts) * c.Trials)
		ni := job / c.Trials % len(latencyCounts)
		trial := job % c.Trials
		d, n := latencyDurations[di], latencyCounts[ni]
		spec := probe.PeriodicForDuration(directRate, paperPktSize, d)
		horizon := time.Duration(n+2)*(2*spec.Duration()+20*time.Millisecond) + time.Second
		cpl, err := scenario.Compile(scenario.Spec{
			Horizon: horizon,
			Seed:    scenario.Seed(c.Seed + uint64(di*1000+ni*100+trial)),
			Hops:    paperHop(scenario.Source{Kind: scenario.Poisson, Rate: paperCrossRate, SplitLabel: "cross"}),
		})
		if err != nil {
			return trialOut{}, fmt.Errorf("exp: latency-accuracy: %w", err)
		}
		tp := cpl.Transport
		tp.Spacing = 10 * time.Millisecond
		t0 := tp.Now()
		var samples []float64
		for i := 0; i < n; i++ {
			rec, err := tp.Probe(spec)
			if err != nil {
				return trialOut{}, fmt.Errorf("exp: latency-accuracy: %w", err)
			}
			ri, ro := rec.InputRate(), rec.OutputRate()
			if ri <= 0 || ro <= 0 {
				continue
			}
			a, err := fluid.DirectEstimate(paperCapacity, ri, ro)
			if err != nil {
				continue
			}
			samples = append(samples, a.MbpsOf())
		}
		out := trialOut{probing: tp.Now() - t0}
		if len(samples) > 0 {
			e := (stats.Mean(samples) - trueA) / trueA
			out.sq, out.ok = e*e, true
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for di, d := range latencyDurations {
		for ni, n := range latencyCounts {
			var sqSum float64
			var probing time.Duration
			base := (di*len(latencyCounts) + ni) * c.Trials
			for _, o := range outs[base : base+c.Trials] {
				probing += o.probing
				if o.ok {
					sqSum += o.sq
				}
			}
			res.Cells = append(res.Cells, LatencyAccuracyCell{
				Duration:    d,
				Streams:     n,
				ProbingTime: probing / time.Duration(c.Trials),
				RMSError:    math.Sqrt(sqSum / float64(c.Trials)),
			})
		}
	}
	return res, nil
}

// Cell returns the grid point for a duration/count pair.
func (r *LatencyAccuracyResult) Cell(d time.Duration, n int) (LatencyAccuracyCell, bool) {
	for _, c := range r.Cells {
		if c.Duration == d && c.Streams == n {
			return c, true
		}
	}
	return LatencyAccuracyCell{}, false
}

// Table renders the tradeoff grid.
func (r *LatencyAccuracyResult) Table() *Table {
	t := &Table{
		Title:  "Fallacy 3: faster estimation is better — latency vs accuracy",
		Header: []string{"stream duration", "streams", "probing time", "RMS rel. error"},
		Notes: []string{
			"the stream duration and count are accuracy knobs, not implementation parameters",
		},
	}
	for _, c := range r.Cells {
		t.Rows = append(t.Rows, []string{
			c.Duration.String(), fmt.Sprintf("%d", c.Streams), c.ProbingTime.Round(time.Millisecond).String(), pct(c.RMSError),
		})
	}
	return t
}

// The narrow-vs-tight path: a Fast Ethernet narrow link carrying
// 10 Mbps of cross traffic (A_narrow = 90 Mbps), then an OC-3 tight
// link carrying 100 Mbps (A_tight ≈ 55.5 Mbps), probed by
// narrowTightTrains trains of narrowTightTrainLen packets at 70 Mbps,
// above A_tight.
const (
	narrowCross         = 10 * unit.Mbps
	tightCross          = 100 * unit.Mbps
	narrowTightRate     = 70 * unit.Mbps
	narrowTightTrains   = 20
	narrowTightTrainLen = 100
)

// NarrowVsTightConfig parameterizes the capacity-estimation pitfall
// demonstration.
type NarrowVsTightConfig struct {
	Seed uint64
}

// NarrowVsTightResult is the demonstration outcome.
type NarrowVsTightResult struct {
	Config NarrowVsTightConfig
	// TrueAvailBwMbps is the end-to-end avail-bw (the tight link's).
	TrueAvailBwMbps float64
	// WithTightCapacity / WithNarrowCapacity are the direct-probing
	// estimates using the correct C_t vs the capacity a capacity-
	// estimation tool would report (C_n).
	WithTightCapacity, WithNarrowCapacity float64
}

// NarrowVsTight demonstrates the paper's fifth misconception: feeding
// the narrow-link capacity (what bprobe-style tools measure) into the
// direct-probing equation instead of the tight-link capacity biases the
// estimate.
func NarrowVsTight(c NarrowVsTightConfig) (*NarrowVsTightResult, error) {
	spec := probe.Periodic(narrowTightRate, paperPktSize, narrowTightTrainLen)
	horizon := time.Duration(narrowTightTrains+2) * (2*spec.Duration() + 100*time.Millisecond)
	cpl, err := scenario.Compile(scenario.Spec{
		Horizon: horizon,
		Seed:    scenario.Seed(c.Seed),
		Hops: []scenario.Hop{
			{Capacity: unit.FastEthernet, Traffic: []scenario.Source{
				{Kind: scenario.Poisson, Rate: narrowCross, SplitLabel: "narrow", Flow: 1}}},
			{Capacity: unit.OC3, Traffic: []scenario.Source{
				{Kind: scenario.Poisson, Rate: tightCross, SplitLabel: "tight", Flow: 2}}},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("exp: narrow-vs-tight: %w", err)
	}
	tp := cpl.Transport
	var withTight, withNarrow []float64
	for i := 0; i < narrowTightTrains; i++ {
		rec, err := tp.Probe(spec)
		if err != nil {
			return nil, fmt.Errorf("exp: narrow-vs-tight: %w", err)
		}
		ri, ro := rec.InputRate(), rec.OutputRate()
		if ri <= 0 || ro <= 0 {
			continue
		}
		if a, err := fluid.DirectEstimate(unit.OC3, ri, ro); err == nil {
			withTight = append(withTight, a.MbpsOf())
		}
		if a, err := fluid.DirectEstimate(unit.FastEthernet, ri, ro); err == nil {
			withNarrow = append(withNarrow, a.MbpsOf())
		}
	}
	if len(withTight) == 0 || len(withNarrow) == 0 {
		return nil, fmt.Errorf("exp: narrow-vs-tight: no measurable trains")
	}
	return &NarrowVsTightResult{
		Config:             c,
		TrueAvailBwMbps:    (unit.OC3 - tightCross).MbpsOf(),
		WithTightCapacity:  stats.Mean(withTight),
		WithNarrowCapacity: stats.Mean(withNarrow),
	}, nil
}

// Table renders the comparison.
func (r *NarrowVsTightResult) Table() *Table {
	errT := math.Abs(r.WithTightCapacity-r.TrueAvailBwMbps) / r.TrueAvailBwMbps
	errN := math.Abs(r.WithNarrowCapacity-r.TrueAvailBwMbps) / r.TrueAvailBwMbps
	return &Table{
		Title:  "Pitfall 5: narrow-link capacity is not the tight-link capacity",
		Header: []string{"variant", "estimate (Mbps)", "true A (Mbps)", "rel. error"},
		Rows: [][]string{
			{"Eq.(9) with C_t (OC-3)", f2(r.WithTightCapacity), f2(r.TrueAvailBwMbps), pct(errT)},
			{"Eq.(9) with C_n (FastE)", f2(r.WithNarrowCapacity), f2(r.TrueAvailBwMbps), pct(errN)},
		},
		Notes: []string{
			"capacity tools estimate the narrow link; direct probing needs the tight link",
		},
	}
}
