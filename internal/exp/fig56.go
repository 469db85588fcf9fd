package exp

import (
	"fmt"
	"time"

	"abw/internal/probe"
	"abw/internal/rng"
	"abw/internal/runner"
	"abw/internal/scenario"
	"abw/internal/sim"
	"abw/internal/stats"
	"abw/internal/trace"
	"abw/internal/unit"
)

// Figure 5's two 160-packet streams, at fig5Above (> A) and fig5Below
// (< A) over the paper's single hop. A burst of fig5BurstPackets cross
// packets late in the below-A stream recreates the paper's lower time
// series, where Ro < Ri despite Ri < A.
const (
	fig5Above        = 27 * unit.Mbps
	fig5Below        = 19 * unit.Mbps
	fig5StreamLen    = 160
	fig5BurstPackets = 120
)

// Figure5Config parameterizes the OWD-trend demonstration. Its CBR
// baseline and its burst draw nothing at random, so the seed reaches
// the scenario but moves no number.
type Figure5Config struct {
	Seed uint64
}

// Figure5Stream is one probing stream's analysis.
type Figure5Stream struct {
	Label      string
	InputMbps  float64
	OutputMbps float64
	RelOWDsMs  []float64
	Trend      stats.TrendResult
}

// Figure5Result is the experiment outcome.
type Figure5Result struct {
	Config Figure5Config
	Above  Figure5Stream // Ri > A: increasing OWDs AND Ro < Ri
	Below  Figure5Stream // Ri < A with a late burst: Ro < Ri but NO trend
	TrueA  float64
}

// Figure5 regenerates the paper's Figure 5: the OWD time series carries
// more information than the single Ro/Ri number. The above-A stream
// shows a clear increasing trend; the below-A stream suffers a late
// cross-traffic burst that depresses its output rate without creating a
// trend — so rate comparison misclassifies it and trend analysis does
// not.
func Figure5(c Figure5Config) (*Figure5Result, error) {
	res := &Figure5Result{Config: c, TrueA: (paperCapacity - paperCrossRate).MbpsOf()}

	run := func(ri unit.Rate, burst bool, label string) (Figure5Stream, error) {
		spec := probe.Periodic(ri, paperPktSize, fig5StreamLen)
		start := 200 * time.Millisecond
		horizon := start + spec.Duration() + 2*time.Second
		// Smooth baseline cross traffic (small packets so it is nearly
		// fluid; the burst below provides the bursty event).
		cpl, err := scenario.Compile(scenario.Spec{
			Horizon: horizon,
			Seed:    scenario.Seed(c.Seed),
			Hops:    paperHop(scenario.Source{Kind: scenario.CBR, Rate: paperCrossRate, PktSize: 300}),
		})
		if err != nil {
			return Figure5Stream{}, fmt.Errorf("exp: figure5: %w", err)
		}
		s, path := cpl.Sim, cpl.Path
		if burst {
			// A dense burst arriving during the last ~10% of the stream.
			burstStart := start + spec.Duration()*9/10
			for i := 0; i < fig5BurstPackets; i++ {
				s.Inject(&sim.Packet{
					Size:  1500,
					Kind:  sim.KindCross,
					Flow:  9999,
					Route: path.Route(),
				}, burstStart+time.Duration(i)*20*time.Microsecond)
			}
		}
		// The stream is the transport's first (flow 1), sent at start
		// and given until horizon to resolve.
		cpl.Transport.Spacing = start
		rec, err := cpl.Transport.Probe(spec)
		if err != nil {
			return Figure5Stream{}, err
		}
		owds := rec.OWDs()
		vals := make([]float64, len(owds))
		for i, d := range owds {
			vals[i] = d.Seconds()
		}
		return Figure5Stream{
			Label:      label,
			InputMbps:  rec.InputRate().MbpsOf(),
			OutputMbps: rec.OutputRate().MbpsOf(),
			RelOWDsMs:  rec.RelativeOWDsMs(),
			Trend:      stats.OWDTrend(vals),
		}, nil
	}

	// The two streams run in separate simulators, so they are two
	// runner jobs (both fully deterministic: the baseline cross traffic
	// is CBR and the burst is injected at fixed instants).
	streams, err := runner.All(2, func(i int) (Figure5Stream, error) {
		if i == 0 {
			return run(fig5Above, false, "Ri > A")
		}
		return run(fig5Below, true, "Ri < A, late burst")
	})
	if err != nil {
		return nil, fmt.Errorf("exp: figure5: %w", err)
	}
	res.Above, res.Below = streams[0], streams[1]
	return res, nil
}

// Table renders both streams' verdicts.
func (r *Figure5Result) Table() *Table {
	t := &Table{
		Title:  "Figure 5: OWD trend analysis vs the Ro/Ri ratio (A = 25 Mbps)",
		Header: []string{"stream", "Ri (Mbps)", "Ro (Mbps)", "Ro<Ri?", "PCT", "PDT", "trend verdict"},
		Notes: []string{
			"paper: the lower stream has Ro < Ri from a late burst, yet no increasing OWD trend",
		},
	}
	for _, s := range []Figure5Stream{r.Above, r.Below} {
		t.Rows = append(t.Rows, []string{
			s.Label, f2(s.InputMbps), f2(s.OutputMbps),
			fmt.Sprintf("%v", s.OutputMbps < s.InputMbps-0.01),
			f2(s.Trend.PCT), f2(s.Trend.PDT), s.Trend.Verdict.String(),
		})
	}
	return t
}

// Figure 6's sample path: the avail-bw at τ = fig6Tau over fig6Span.
const (
	fig6Tau  = 10 * time.Millisecond
	fig6Span = 20 * time.Second
)

// Figure6Config parameterizes the variation-range sample path.
type Figure6Config struct {
	Seed uint64
}

// Figure6Result is the experiment outcome.
type Figure6Result struct {
	Config Figure6Config
	// SeriesMbps is the avail-bw sample path at τ = 10 ms.
	SeriesMbps []float64
	MeanMbps   float64
	Q05, Q95   float64
	Min, Max   float64
}

// Figure6 regenerates the paper's Figure 6: a sample path of the
// avail-bw process at τ = 10 ms, whose variation range — roughly 60 to
// 110 Mbps on the paper's trace — is what iterative probing converges
// to, rather than any single number.
func Figure6(c Figure6Config) (*Figure6Result, error) {
	tr, err := trace.SynthesizeFGN(trace.FGNConfig{Span: fig6Span}, rng.New(c.Seed))
	if err != nil {
		return nil, fmt.Errorf("exp: figure6: %w", err)
	}
	series := tr.AvailBwSeries(0, fig6Span, fig6Tau)
	vals := make([]float64, len(series))
	for i, a := range series {
		vals[i] = a.MbpsOf()
	}
	cdf := stats.NewCDF(vals)
	min, max := stats.MinMax(vals)
	return &Figure6Result{
		Config:     c,
		SeriesMbps: vals,
		MeanMbps:   stats.Mean(vals),
		Q05:        cdf.Quantile(0.05),
		Q95:        cdf.Quantile(0.95),
		Min:        min,
		Max:        max,
	}, nil
}

// Table summarizes the sample path.
func (r *Figure6Result) Table() *Table {
	return &Table{
		Title:  "Figure 6: variation range of an avail-bw sample path (tau = 10 ms)",
		Header: []string{"windows", "mean", "q05", "q95", "min", "max"},
		Rows: [][]string{{
			fmt.Sprintf("%d", len(r.SeriesMbps)),
			f2(r.MeanMbps), f2(r.Q05), f2(r.Q95), f2(r.Min), f2(r.Max),
		}},
		Notes: []string{
			"paper: the 10ms avail-bw varies roughly between 60 and 110 Mbps — a range, not a point",
		},
	}
}
