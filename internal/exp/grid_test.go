package exp

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"abw/internal/core"
	"abw/internal/rng"
	"abw/internal/runner"
	"abw/internal/scenario"
	"abw/internal/stats"
	"abw/internal/tools/learned"
	"abw/internal/tools/registry"
)

// The oracles below are the per-experiment cell loops the grid
// replaced, kept verbatim as differential references: each compiles,
// seeds and scores its cells on its own, so a grid that shares a Rand
// across cells, reuses a compile across tools, or picks the wrong
// effort for a column disagrees with them.

// oracleMatrix runs one job per (scenario, tool), compiling every
// scenario once more for its truth row.
func oracleMatrix(c MatrixConfig) (*MatrixResult, error) {
	tools := registry.Names()
	res := &MatrixResult{Config: c, Tools: tools}
	catalog := scenario.Catalog()
	for _, d := range catalog {
		cpl, err := d.CompileSeeded(c.Seed)
		if err != nil {
			return nil, err
		}
		res.Scenarios = append(res.Scenarios, MatrixScenarioInfo{
			Name:            d.Name,
			Summary:         d.Summary,
			Hops:            len(d.Spec.Hops),
			TrueAvailBwMbps: cpl.TrueAvailBw.MbpsOf(),
			CapacityMbps:    cpl.Capacity.MbpsOf(),
			TightLink:       cpl.TightLink,
			NarrowLink:      cpl.NarrowLink,
		})
	}
	cells, err := runner.All(len(catalog)*len(tools), func(job int) (MatrixCell, error) {
		d, tool := catalog[job/len(tools)], tools[job%len(tools)]
		cpl, err := d.CompileSeeded(c.Seed)
		if err != nil {
			return MatrixCell{}, err
		}
		params := registry.Params{Capacity: cpl.Capacity, Rand: rng.New(c.Seed + 1)}
		if c.Quick {
			params.Repeat = 6
			params.MaxRounds = 6
			if tool == "learned" {
				params.Repeat = 2
			}
		}
		rep, err := registry.Estimate(context.Background(), tool, params, cpl.Transport)
		return MatrixCell{Scenario: d.Name, Outcome: core.NewOutcome(tool, rep, err), Err: err}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Cells = cells
	return res, nil
}

// oracleCompareTools builds the paper's hop per tool and hands every
// tool the paper's capacity.
func oracleCompareTools(c CompareConfig, model CrossModel) (*CompareResult, error) {
	res := &CompareResult{Config: c, TrueAvailBw: paperCapacity - paperCrossRate, model: model}
	tools := registry.Names()
	entries, err := runner.All(len(tools), func(ti int) (CompareEntry, error) {
		cpl, err := scenario.Compile(scenario.Spec{
			Horizon: 10 * time.Minute,
			Seed:    scenario.Seed(c.Seed),
			Hops: []scenario.Hop{{
				Capacity: paperCapacity,
				Traffic:  []scenario.Source{crossSource(model, paperCrossRate)},
			}},
		})
		if err != nil {
			return CompareEntry{}, err
		}
		rep, err := registry.Estimate(context.Background(), tools[ti], registry.Params{
			Capacity: paperCapacity,
			Rand:     rng.New(c.Seed + 1),
		}, cpl.Transport)
		return CompareEntry{Outcome: core.NewOutcome(tools[ti], rep, err), Err: err}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Entries = entries
	return res, nil
}

// oracleLearnedEval scores the learned model on the full dataset's
// test rows (the median of a configuration's per-stream predictions)
// and runs each classical tool on a fresh compilation per
// configuration.
func oracleLearnedEval(cfg LearnedEvalConfig) (*LearnedEvalResult, error) {
	weights, err := learned.Default()
	if err != nil {
		return nil, err
	}
	dcfg := cfg.Dataset
	dcfg.Seed = cfg.Seed
	ds, err := Dataset(dcfg)
	if err != nil {
		return nil, err
	}
	_, test := ds.SplitRows()
	res := &LearnedEvalResult{Config: cfg}
	for _, tool := range registry.Names() {
		if tool != "learned" {
			res.Tools = append(res.Tools, tool)
		}
	}
	type evalConfig struct {
		scen                             string
		scaling                          float64
		simSeed                          uint64
		capacityMbps, trueMbps, learnErr float64
	}
	var configs []evalConfig
	index := map[string]int{}
	preds := map[string][]float64{}
	for _, r := range test {
		key := datasetKey(r.Scenario, r.Scaling, r.Trial)
		if _, ok := index[key]; !ok {
			index[key] = len(configs)
			configs = append(configs, evalConfig{scen: r.Scenario, scaling: r.Scaling,
				simSeed: r.SimSeed, capacityMbps: r.CapacityMbps, trueMbps: r.TrueAvailBwMbps})
		}
		pred, err := weights.Predict(r.ModelInput())
		if err != nil {
			return nil, err
		}
		preds[key] = append(preds[key], pred)
	}
	for key, i := range index {
		c := &configs[i]
		c.learnErr = math.Abs(stats.Median(preds[key])*c.capacityMbps - c.trueMbps)
	}
	type toolErr struct {
		config, tool int
		errMbps      float64
		failed       bool
	}
	errs, err := runner.All(len(configs)*len(res.Tools), func(job int) (toolErr, error) {
		ci, ti := job/len(res.Tools), job%len(res.Tools)
		c, tool := configs[ci], res.Tools[ti]
		d, _ := scenario.Lookup(c.scen)
		d.Spec = scenario.ScaleTraffic(d.Spec, c.scaling)
		cpl, err := d.CompileSeeded(c.simSeed)
		if err != nil {
			return toolErr{}, err
		}
		params := registry.Params{Capacity: cpl.Capacity, Rand: rng.New(cfg.Seed + 1), Repeat: 6, MaxRounds: 6}
		rep, estErr := registry.Estimate(context.Background(), tool, params, cpl.Transport)
		if estErr != nil {
			return toolErr{config: ci, tool: ti, failed: true}, nil
		}
		return toolErr{config: ci, tool: ti, errMbps: math.Abs(rep.Point.MbpsOf() - cpl.TrueAvailBw.MbpsOf())}, nil
	})
	if err != nil {
		return nil, err
	}
	type agg struct {
		sum float64
		n   int
	}
	learnedAgg := map[string]*agg{}
	classical := map[string]map[string]*agg{}
	for _, c := range configs {
		if learnedAgg[c.scen] == nil {
			learnedAgg[c.scen] = &agg{}
			classical[c.scen] = map[string]*agg{}
		}
		learnedAgg[c.scen].sum += c.learnErr
		learnedAgg[c.scen].n++
	}
	for _, e := range errs {
		if e.failed {
			continue
		}
		scen, tool := configs[e.config].scen, res.Tools[e.tool]
		if classical[scen][tool] == nil {
			classical[scen][tool] = &agg{}
		}
		classical[scen][tool].sum += e.errMbps
		classical[scen][tool].n++
	}
	var names []string
	for scen := range learnedAgg {
		names = append(names, scen)
	}
	sort.Strings(names)
	var ordered []string
	for _, d := range scenario.Catalog() {
		for _, n := range names {
			if n == d.Name {
				ordered = append(ordered, n)
			}
		}
	}
	for _, scen := range ordered {
		la := learnedAgg[scen]
		s := LearnedEvalScenario{Name: scen, Configs: la.n, LearnedMAE: la.sum / float64(la.n), BestMAE: math.Inf(1)}
		for _, tool := range res.Tools {
			a := classical[scen][tool]
			if a == nil || a.n == 0 {
				continue
			}
			if mae := a.sum / float64(a.n); mae < s.BestMAE {
				s.BestMAE, s.BestTool = mae, tool
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

func TestGridMatrixMatchesOracle(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		cfg := MatrixConfig{Quick: true, Seed: seed}
		got, err := Matrix(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleMatrix(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: quick matrix differs from its per-cell oracle:\n%s", seed, firstCellDiff(got, want))
		}
	}
}

// firstCellDiff names the first scenario row or cell where two matrices
// disagree.
func firstCellDiff(got, want *MatrixResult) string {
	for i := range want.Scenarios {
		if i >= len(got.Scenarios) || !reflect.DeepEqual(got.Scenarios[i], want.Scenarios[i]) {
			return fmt.Sprintf("scenario row %d (%s)", i, want.Scenarios[i].Name)
		}
	}
	for i := range want.Cells {
		if i >= len(got.Cells) || !reflect.DeepEqual(got.Cells[i], want.Cells[i]) {
			return fmt.Sprintf("cell %s/%s", want.Cells[i].Scenario, want.Cells[i].Tool)
		}
	}
	return "result headers"
}

func TestGridCompareMatchesOracle(t *testing.T) {
	for _, model := range []CrossModel{ModelPoisson, ModelCBR} {
		for _, seed := range []uint64{1, 2} {
			got, err := compareTools(CompareConfig{Seed: seed}, model)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleCompareTools(CompareConfig{Seed: seed}, model)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Entries) != len(want.Entries) {
				t.Fatalf("%s seed %d: %d entries, oracle has %d", model, seed, len(got.Entries), len(want.Entries))
			}
			for i := range want.Entries {
				if !reflect.DeepEqual(got.Entries[i], want.Entries[i]) {
					t.Errorf("%s seed %d: %s differs from its oracle", model, seed, want.Entries[i].Tool)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: comparison differs from its oracle", model, seed)
			}
		}
	}
}

// TestGridLearnedEvalMatchesOracle scores the learned tool as a grid
// column against the dataset rows' own predictions. The two points
// differ only by float rounding (Rate(m·C)/1e6 against m·(C/1e6)), so
// LearnedMAE may move below 1e-9 Mbps and nothing else may move.
func TestGridLearnedEvalMatchesOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		cfg := evalConfigSmall(seed)
		got, err := LearnedEval(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleLearnedEval(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Scenarios) != len(want.Scenarios) {
			t.Fatalf("seed %d: %d scenarios, oracle has %d", seed, len(got.Scenarios), len(want.Scenarios))
		}
		for i, w := range want.Scenarios {
			g := got.Scenarios[i]
			if d := math.Abs(g.LearnedMAE - w.LearnedMAE); d > 1e-9 {
				t.Errorf("seed %d %s: learned MAE %v, oracle %v", seed, w.Name, g.LearnedMAE, w.LearnedMAE)
			}
			g.LearnedMAE = w.LearnedMAE
			if g != w {
				t.Errorf("seed %d: row %+v, oracle %+v", seed, g, w)
			}
		}
		if !reflect.DeepEqual(got.Config, want.Config) || !reflect.DeepEqual(got.Tools, want.Tools) || got.Wins != want.Wins {
			t.Errorf("seed %d: config/tools/wins differ from the oracle", seed)
		}
		var gt, wt bytes.Buffer
		got.Table().Markdown(&gt)
		want.Table().Markdown(&wt)
		if !bytes.Equal(gt.Bytes(), wt.Bytes()) {
			t.Errorf("seed %d: table differs from the oracle's:\n%s\nvs\n%s", seed, gt.String(), wt.String())
		}
	}
}
