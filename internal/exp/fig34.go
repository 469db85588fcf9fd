package exp

import (
	"fmt"
	"slices"
	"time"

	"abw/internal/probe"
	"abw/internal/runner"
	"abw/internal/scenario"
	"abw/internal/stats"
	"abw/internal/unit"
)

// CrossModel names the cross-traffic models of Figure 3.
type CrossModel string

// Figure 3's three burstiness levels.
const (
	ModelCBR     CrossModel = "CBR"
	ModelPoisson CrossModel = "Poisson"
	ModelPareto  CrossModel = "Pareto On-Off"
)

// ratioRates is the Ri grid Figures 3 and 4 share, 5 → 30 Mbps in
// 2.5 Mbps steps; each point probes streams of ratioStreamLen packets.
var ratioRates = func() (rates []unit.Rate) {
	for ri := 5.0; ri <= 30.0; ri += 2.5 {
		rates = append(rates, unit.Rate(ri)*unit.Mbps)
	}
	return rates
}()

const ratioStreamLen = 50

// fig3Models are Figure 3's curves.
var fig3Models = []CrossModel{ModelCBR, ModelPoisson, ModelPareto}

// Figure3Config parameterizes the burstiness experiment, run at the
// paper's setting over the shared Ri grid.
type Figure3Config struct {
	Streams int // per (model, Ri) point, default 500
	Seed    uint64
}

// RatioSeries is one model's mean Ro/Ri curve.
type RatioSeries struct {
	Model  CrossModel
	Rates  []unit.Rate
	Ratios []float64
}

// RatioAt returns the mean ratio at the given rate.
func (s *RatioSeries) RatioAt(ri unit.Rate) (float64, bool) {
	for i, r := range s.Rates {
		if r == ri {
			return s.Ratios[i], true
		}
	}
	return 0, false
}

// Figure3Result is the experiment outcome.
type Figure3Result struct {
	Config Figure3Config
	Series []RatioSeries
}

// Figure3 regenerates the paper's Figure 3: the mean Ro/Ri response
// curve under CBR, Poisson and Pareto ON-OFF cross traffic at equal mean
// avail-bw. The paper's claim: with bursty traffic the ratio dips below
// 1 well before Ri reaches A, biasing estimators downward.
// Each (model, rate) grid point is one runner job: it builds its own
// simulator and seeds it from the experiment seed and its grid indices.
func Figure3(c Figure3Config) (*Figure3Result, error) {
	if c.Streams == 0 {
		c.Streams = 500
	}
	grid, err := ratioGrid("figure3", len(fig3Models), c.Streams,
		func(mi, riIdx int, horizon time.Duration) scenario.Spec {
			return scenario.Spec{
				Horizon: horizon,
				Seed:    scenario.Seed(c.Seed + uint64(mi)*10000 + uint64(riIdx)*100),
				Hops:    paperHop(crossSource(fig3Models[mi], paperCrossRate)),
			}
		})
	if err != nil {
		return nil, err
	}
	res := &Figure3Result{Config: c}
	for mi, model := range fig3Models {
		res.Series = append(res.Series, RatioSeries{Model: model, Rates: slices.Clone(ratioRates), Ratios: grid[mi]})
	}
	return res, nil
}

// ratioGrid is the body Figures 3 and 4 share. Each (row, rate) grid
// point of ratioRates is one runner job: it compiles the spec build
// returns for the point, probes it streams times with a periodic
// stream at the rate, and yields the mean of the positive Ro/Ri
// ratios. The result holds one slice per row, indexed by rate.
func ratioGrid(fig string, rows, streams int,
	build func(row, riIdx int, horizon time.Duration) scenario.Spec) ([][]float64, error) {
	ratios, err := runner.All(rows*len(ratioRates), func(job int) (float64, error) {
		row, riIdx := job/len(ratioRates), job%len(ratioRates)
		spec := probe.Periodic(ratioRates[riIdx], paperPktSize, ratioStreamLen)
		horizon := time.Duration(streams+4) * (2*spec.Duration() + 100*time.Millisecond)
		cpl, err := scenario.Compile(build(row, riIdx, horizon))
		if err != nil {
			return 0, fmt.Errorf("exp: %s: %w", fig, err)
		}
		tp := cpl.Transport
		tp.Spacing = spec.Duration() + 20*time.Millisecond
		var ratios []float64
		for i := 0; i < streams; i++ {
			rec, err := tp.Probe(spec)
			if err != nil {
				return 0, fmt.Errorf("exp: %s: %w", fig, err)
			}
			if r := rec.Ratio(); r > 0 {
				ratios = append(ratios, r)
			}
		}
		return stats.Mean(ratios), nil
	})
	if err != nil {
		return nil, err
	}
	grid := make([][]float64, rows)
	for row := range grid {
		lo, hi := row*len(ratioRates), (row+1)*len(ratioRates)
		grid[row] = ratios[lo:hi:hi]
	}
	return grid, nil
}

// crossSource maps a Figure 3 cross model onto a scenario source. The
// SplitLabel overrides pin the rng derivation labels these experiments
// used before the scenario subsystem existed, so their numbers are
// bit-identical across the refactor.
func crossSource(m CrossModel, rate unit.Rate) scenario.Source {
	switch m {
	case ModelPoisson:
		return scenario.Source{Kind: scenario.Poisson, Rate: rate, SplitLabel: "poisson"}
	case ModelPareto:
		return scenario.Source{Kind: scenario.ParetoOnOff, Rate: rate, SplitLabel: "pareto"}
	default:
		return scenario.Source{Kind: scenario.CBR, Rate: rate}
	}
}

// Table renders the three curves side by side.
func (r *Figure3Result) Table() *Table {
	t := &Table{
		Title:  "Figure 3: effect of cross-traffic burstiness on Ro/Ri (A = 25 Mbps)",
		Header: []string{"Ri (Mbps)"},
		Notes: []string{
			"paper: CBR stays ~1.0 until Ri > A; Poisson and Pareto ON-OFF dip below 1 well before",
		},
	}
	for _, s := range r.Series {
		t.Header = append(t.Header, string(s.Model))
	}
	for i, ri := range ratioRates {
		row := []string{f2(ri.MbpsOf())}
		for _, s := range r.Series {
			row = append(row, f3(s.Ratios[i]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// fig4TightLinks are Figure 4's path lengths: 1, 3 and 5 equally
// tight links, each carrying one-hop-persistent Poisson cross traffic.
var fig4TightLinks = []int{1, 3, 5}

// Figure4Config parameterizes the multiple-bottleneck experiment, run at
// the paper's setting over the shared Ri grid.
type Figure4Config struct {
	Streams int // per point, default 500
	Seed    uint64
}

// Figure4Series is one path length's Ro/Ri curve.
type Figure4Series struct {
	TightLinks int
	Rates      []unit.Rate
	Ratios     []float64
}

// Figure4Result is the experiment outcome.
type Figure4Result struct {
	Config Figure4Config
	Series []Figure4Series
}

// Figure4 regenerates the paper's Figure 4: with multiple equally tight
// links carrying one-hop-persistent Poisson cross traffic, the Ro/Ri
// ratio at Ri = A falls as the number of tight links grows — compounding
// underestimation.
// Each (path length, rate) grid point is one runner job, seeded from
// the experiment seed and its grid indices.
func Figure4(c Figure4Config) (*Figure4Result, error) {
	if c.Streams == 0 {
		c.Streams = 500
	}
	grid, err := ratioGrid("figure4", len(fig4TightLinks), c.Streams,
		func(hi, riIdx int, horizon time.Duration) scenario.Spec {
			sp := scenario.Spec{
				Horizon: horizon,
				Seed:    scenario.Seed(c.Seed + uint64(hi)*100000 + uint64(riIdx)*100),
			}
			for h := 0; h < fig4TightLinks[hi]; h++ {
				sp.Hops = append(sp.Hops, paperHop(scenario.Source{Kind: scenario.Poisson, Rate: paperCrossRate})...)
			}
			return sp
		})
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{Config: c}
	for hi, hops := range fig4TightLinks {
		res.Series = append(res.Series, Figure4Series{TightLinks: hops, Rates: slices.Clone(ratioRates), Ratios: grid[hi]})
	}
	return res, nil
}

// RatioAt returns the series ratio at a given rate.
func (s *Figure4Series) RatioAt(ri unit.Rate) (float64, bool) {
	for i, r := range s.Rates {
		if r == ri {
			return s.Ratios[i], true
		}
	}
	return 0, false
}

// Table renders the per-path-length curves.
func (r *Figure4Result) Table() *Table {
	t := &Table{
		Title:  "Figure 4: effect of multiple tight links on Ro/Ri (A = 25 Mbps per link)",
		Header: []string{"Ri (Mbps)"},
		Notes: []string{
			"paper: at Ri = A the ratio falls as tight links are added",
		},
	}
	for _, s := range r.Series {
		t.Header = append(t.Header, fmt.Sprintf("%d tight", s.TightLinks))
	}
	for i, ri := range ratioRates {
		row := []string{f2(ri.MbpsOf())}
		for _, s := range r.Series {
			row = append(row, f3(s.Ratios[i]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
