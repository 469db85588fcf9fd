package exp

import (
	"fmt"
	"math"

	"abw/internal/scenario"
	"abw/internal/tools/registry"
)

// LearnedEvalConfig parameterizes the held-out evaluation of the
// learned estimator: the committed weights against the classical tools
// on the dataset experiment's seed-held-out test configurations.
type LearnedEvalConfig struct {
	// Dataset is the sweep to draw test configurations from (zero value:
	// the dataset defaults — whole catalog, scalings ×0.5/1.0/1.5,
	// three trials). Its Seed is overridden by Seed below.
	Dataset DatasetConfig
	Seed    uint64
}

// LearnedEvalScenario is one scenario's held-out comparison.
type LearnedEvalScenario struct {
	Name string
	// Configs counts the (scaling, trial) test configurations evaluated.
	Configs int
	// LearnedMAE is the learned estimator's mean absolute error in Mbps
	// over the scenario's test configurations; BestMAE is the smallest
	// classical-tool MAE over the same configurations, from BestTool.
	LearnedMAE float64
	BestTool   string
	BestMAE    float64
	// Win marks scenarios where the learned model is no worse than the
	// best classical tool.
	Win bool
}

// LearnedEvalResult is the evaluation outcome.
type LearnedEvalResult struct {
	Config    LearnedEvalConfig
	Tools     []string // classical tools compared against
	Scenarios []LearnedEvalScenario
	Wins      int
}

// LearnedEval answers the question the eighth tool exists to pose: once
// the mapping from probe features to avail-bw is learned rather than
// derived, how does it compare on held-out conditions against the seven
// analytic mappings? Every tool, learned included, is one
// grid column over the dataset's test configurations (see runGrid):
// the classical tools at quick-matrix effort, the learned tool at its
// plan's, which probes exactly as the dataset rows do.
func LearnedEval(cfg LearnedEvalConfig) (*LearnedEvalResult, error) {
	dcfg := cfg.Dataset
	dcfg.Seed = cfg.Seed
	configs, err := heldOut(dcfg)
	if err != nil {
		return nil, err
	}
	tools := registry.Names()
	res := &LearnedEvalResult{Config: cfg}
	for _, tool := range tools {
		if tool != "learned" {
			res.Tools = append(res.Tools, tool)
		}
	}
	specs := make([]scenario.Spec, len(configs))
	for i, c := range configs {
		specs[i] = c.spec()
	}
	cells, err := runGrid(cfg.Seed, specs, tools, evalEffort)
	if err != nil {
		return nil, fmt.Errorf("exp: learnedeval: %w", err)
	}

	// Aggregate per scenario, in catalog order. A classical tool that
	// failed on some of a scenario's configurations is scored on the
	// ones it completed; one that completed none is out of that
	// scenario's contest. A learned failure fails the evaluation.
	type agg struct {
		sum float64
		n   int
	}
	var names []string
	aggs := map[string][]agg{} // scenario → per-tool error sums, indexed like tools
	for i, g := range cells {
		c, ti := configs[i/len(tools)], i%len(tools)
		if aggs[c.scen] == nil {
			names = append(names, c.scen)
			aggs[c.scen] = make([]agg, len(tools))
		}
		if g.Err != nil {
			if tools[ti] == "learned" {
				return nil, fmt.Errorf("exp: learnedeval: %s ×%g: %w", c.scen, c.scaling, g.Err)
			}
			continue
		}
		a := &aggs[c.scen][ti]
		a.sum += math.Abs(g.Report.Point.MbpsOf() - g.TrueAvailBw.MbpsOf())
		a.n++
	}
	for _, scen := range names {
		s := LearnedEvalScenario{Name: scen, BestMAE: math.Inf(1)}
		for ti, a := range aggs[scen] {
			switch {
			case tools[ti] == "learned":
				s.Configs, s.LearnedMAE = a.n, a.sum/float64(a.n)
			case a.n > 0:
				if mae := a.sum / float64(a.n); mae < s.BestMAE {
					s.BestMAE, s.BestTool = mae, tools[ti]
				}
			}
		}
		s.Win = s.BestTool == "" || s.LearnedMAE <= s.BestMAE
		if s.Win {
			res.Wins++
		}
		res.Scenarios = append(res.Scenarios, s)
	}
	return res, nil
}

// Table renders the comparison: per scenario, the learned model's
// held-out error against the best classical tool on the same
// configurations.
func (r *LearnedEvalResult) Table() *Table {
	t := &Table{
		Title:  "Learned estimator vs best classical tool on seed-held-out test configurations (MAE in Mbps)",
		Header: []string{"scenario", "test cfgs", "learned", "best classical", "best tool", "learned wins"},
		Notes: []string{
			"paper: every estimator is an ad-hoc mapping from probe timing signatures to avail-bw; " +
				"here that mapping is learned once over shared features and held to the analytic tools' standard",
			"classical tools run with quick-matrix effort on fresh compilations of the same scaled, same-seed scenarios",
			fmt.Sprintf("learned is no worse than the best classical tool on %d of %d scenarios", r.Wins, len(r.Scenarios)),
		},
	}
	for _, s := range r.Scenarios {
		win := ""
		if s.Win {
			win = "yes"
		}
		best := "x"
		bestTool := s.BestTool
		if bestTool == "" {
			bestTool = "-"
		} else {
			best = f2(s.BestMAE)
		}
		t.Rows = append(t.Rows, []string{
			s.Name, fmt.Sprintf("%d", s.Configs), f2(s.LearnedMAE), best, bestTool, win,
		})
	}
	return t
}
