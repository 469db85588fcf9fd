package exp

import (
	"math"
	"reflect"
	"testing"

	"abw/internal/runner"
	"abw/internal/scenario"
	"abw/internal/tools/learned"
)

// evalConfigSmall keeps the classical-tool fan-out affordable for unit
// tests: the sweep abwsim -quick evaluates, nominal scaling, two trials.
func evalConfigSmall(seed uint64) LearnedEvalConfig {
	return LearnedEvalConfig{
		Dataset: DatasetConfig{Scalings: []float64{1.0}, Trials: 2},
		Seed:    seed,
	}
}

func TestLearnedEvalSmoke(t *testing.T) {
	// The dataset probes with learned.DefaultPlan, and the evaluated
	// weights must have been trained on the features it yields.
	w, err := learned.Default()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.Plan, learned.DefaultPlan()) {
		t.Fatalf("committed weights' plan %+v is not learned.DefaultPlan %+v", w.Plan, learned.DefaultPlan())
	}
	res, err := LearnedEval(evalConfigSmall(1))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(scenario.Names()); len(res.Scenarios) != n {
		t.Fatalf("scenarios = %d, want %d", len(res.Scenarios), n)
	}
	if len(res.Tools) != 7 {
		t.Errorf("classical tools = %v, want the seven non-learned ones", res.Tools)
	}
	for _, s := range res.Scenarios {
		if s.Configs < 1 {
			t.Errorf("%s: no test configurations", s.Name)
		}
		if math.IsNaN(s.LearnedMAE) || s.LearnedMAE < 0 {
			t.Errorf("%s: learned MAE %g", s.Name, s.LearnedMAE)
		}
		if s.BestTool == "" {
			t.Errorf("%s: no classical tool completed", s.Name)
		}
		if s.Win != (s.LearnedMAE <= s.BestMAE) {
			t.Errorf("%s: win flag inconsistent with MAEs", s.Name)
		}
	}
	if res.Table() == nil {
		t.Error("nil table")
	}
}

// TestLearnedEvalDeterministic extends the determinism contract to the
// evaluation experiment: worker count must not move any number.
func TestLearnedEvalDeterministic(t *testing.T) {
	defer runner.SetWorkers(0)
	run := func(workers int) *LearnedEvalResult {
		runner.SetWorkers(workers)
		res, err := LearnedEval(evalConfigSmall(7))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(1), run(8); !reflect.DeepEqual(a.Scenarios, b.Scenarios) {
		t.Error("-parallel 1 and -parallel 8 evaluations differ")
	}
}
