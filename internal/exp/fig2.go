package exp

import (
	"fmt"
	"time"

	"abw/internal/fluid"
	"abw/internal/probe"
	"abw/internal/runner"
	"abw/internal/scenario"
	"abw/internal/stats"
)

// fig2Durations are Figure 2's probing-stream durations, each also the
// averaging timescale of its population.
var fig2Durations = []time.Duration{
	25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
	150 * time.Millisecond, 200 * time.Millisecond,
}

// Figure2Config parameterizes the probing-duration experiment: the
// paper's single hop, probed directly at Ri = 40 Mbps.
type Figure2Config struct {
	Streams int // samples per duration, default 100
	Seed    uint64
}

// Figure2Point is one duration's comparison of sample vs population
// standard deviation.
type Figure2Point struct {
	Duration time.Duration
	// SampleSD is the stddev of the per-stream direct-probing avail-bw
	// samples (Mbps).
	SampleSD float64
	// PopulationSD is the stddev of the ground-truth avail-bw process at
	// the matching timescale (Mbps).
	PopulationSD float64
}

// Figure2Result is the experiment outcome.
type Figure2Result struct {
	Config Figure2Config
	Points []Figure2Point
}

// Figure2 regenerates the paper's Figure 2: the probing stream duration
// IS the averaging timescale. For each duration, 100 direct-probing
// samples are collected and their standard deviation compared with the
// population standard deviation of A_τ at τ = duration — C less the
// cross rate the spec offers the hop in each window of the probed span
// (Compiled.Offered), which no probe counts against; the two curves
// should coincide and decrease with τ.
// Each duration is one runner job: it builds its own simulator and
// derives its randomness from the seed and the duration index alone.
func Figure2(c Figure2Config) (*Figure2Result, error) {
	if c.Streams == 0 {
		c.Streams = 100
	}
	res := &Figure2Result{Config: c}
	points, err := runner.All(len(fig2Durations), func(di int) (Figure2Point, error) {
		d := fig2Durations[di]
		spec := probe.PeriodicForDuration(directRate, paperPktSize, d)
		// Horizon: generous upper bound on the virtual time the probing
		// loop can consume (spacing + stream + resolution slack per
		// stream), so cross traffic always outlives the measurement.
		spacing := spec.Duration() + 40*time.Millisecond
		perStream := spacing + spec.Duration() + 100*time.Millisecond
		horizon := time.Duration(c.Streams+3) * perStream
		cpl, err := scenario.Compile(scenario.Spec{
			Horizon: horizon,
			Seed:    scenario.Seed(c.Seed + uint64(di)),
			Hops:    paperHop(scenario.Source{Kind: scenario.Poisson, Rate: paperCrossRate, SplitLabel: "cross"}),
		})
		if err != nil {
			return Figure2Point{}, fmt.Errorf("exp: figure2: %w", err)
		}
		tp := cpl.Transport
		tp.Spacing = spacing
		samples := make([]float64, 0, c.Streams)
		for i := 0; i < c.Streams; i++ {
			r, err := tp.Probe(spec)
			if err != nil {
				return Figure2Point{}, fmt.Errorf("exp: figure2: %w", err)
			}
			ri, ro := r.InputRate(), r.OutputRate()
			if ri <= 0 || ro <= 0 {
				continue
			}
			a, err := fluid.DirectEstimate(paperCapacity, ri, ro)
			if err != nil {
				continue
			}
			samples = append(samples, a.MbpsOf())
		}
		// Population: the avail-bw series at τ = stream duration over
		// the probed span, C minus the offered cross rate per window
		// (clamped at 0) — the probe streams themselves must not count
		// against the avail-bw they are measuring.
		probeEnd := tp.Now()
		if probeEnd > horizon {
			probeEnd = horizon
		}
		offered, err := cpl.Offered(0, probeEnd)
		if err != nil {
			return Figure2Point{}, fmt.Errorf("exp: figure2: %w", err)
		}
		var pop []float64
		for at := 50 * time.Millisecond; at+spec.Duration() <= probeEnd; at += spec.Duration() {
			pop = append(pop, offered.AvailBw(at, spec.Duration()).MbpsOf())
		}
		return Figure2Point{
			Duration:     d,
			SampleSD:     stats.StdDev(samples),
			PopulationSD: stats.StdDev(pop),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Points = points
	return res, nil
}

// Table renders the figure's two curves.
func (r *Figure2Result) Table() *Table {
	t := &Table{
		Title:  "Figure 2: probing duration controls the averaging timescale",
		Header: []string{"duration", "population SD (Mbps)", "sample SD (Mbps)"},
		Notes: []string{
			"paper: the two standard deviations are almost equal and fall with the timescale",
		},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{p.Duration.String(), f2(p.PopulationSD), f2(p.SampleSD)})
	}
	return t
}
