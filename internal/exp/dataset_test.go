package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"abw/internal/runner"
	"abw/internal/scenario"
	"abw/internal/tools/learned"
)

// quickDataset is the sweep abwsim -quick runs: the whole catalog at
// nominal scaling, one trial.
func quickDataset(seed uint64) DatasetConfig {
	return DatasetConfig{Scalings: []float64{1.0}, Trials: 1, Seed: seed}
}

// rowsPerConfig is the rows one (scenario, scaling, trial)
// configuration yields: one per probe stream of the plan.
func rowsPerConfig() int {
	plan := learned.DefaultPlan()
	return len(plan.RateFracs) * plan.StreamsPerFrac
}

func TestDatasetSmoke(t *testing.T) {
	res, err := Dataset(DatasetConfig{Scalings: []float64{0.5, 1.0}, Trials: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// scenarios × 2 scalings × 2 trials × the plan's streams.
	scenarios := len(scenario.Names())
	if want := scenarios * 2 * 2 * rowsPerConfig(); len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	wantCols := len(CSVHeader())
	for i, r := range res.Rows {
		if r.Split != "train" && r.Split != "test" {
			t.Errorf("row %d: split %q", i, r.Split)
		}
		if r.CapacityMbps <= 0 {
			t.Errorf("row %d: capacity %g", i, r.CapacityMbps)
		}
		if r.Target < 0 || r.Target > 1 {
			t.Errorf("row %d: target %g outside [0, 1]", i, r.Target)
		}
		if got := 9 + len(r.ModelInput()); got != wantCols {
			t.Errorf("row %d: %d CSV fields, header has %d", i, got, wantCols)
		}
	}
	// Every (scenario, scaling) cell must keep at least one test trial.
	cells := map[string]bool{}
	for _, r := range res.Rows {
		if r.Split == "test" {
			cells[r.Scenario+"@"+f2(r.Scaling)] = true
		}
	}
	if len(cells) != 2*scenarios {
		t.Errorf("stratified split left %d of %d cells with a test trial", len(cells), 2*scenarios)
	}
	if res.Table() == nil {
		t.Error("nil table")
	}
}

// TestDatasetScalingMovesGroundTruth pins what the scalings are for:
// heavier cross traffic must not raise the scenario's avail-bw.
func TestDatasetScalingMovesGroundTruth(t *testing.T) {
	res, err := Dataset(DatasetConfig{Scalings: []float64{0.5, 1.0}, Trials: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	truth := map[string]map[float64]float64{}
	for _, r := range res.Rows {
		if truth[r.Scenario] == nil {
			truth[r.Scenario] = map[float64]float64{}
		}
		truth[r.Scenario][r.Scaling] = r.TrueAvailBwMbps
	}
	for scen, byScale := range truth {
		if byScale[1.0] > byScale[0.5] {
			t.Errorf("%s: avail-bw rose from %g to %g Mbps as cross traffic scaled 0.5 → 1.0",
				scen, byScale[0.5], byScale[1.0])
		}
	}
}

// TestDatasetDeterministicCSV is the determinism contract on the
// dataset: same seed → byte-identical CSV at any worker count.
func TestDatasetDeterministicCSV(t *testing.T) {
	defer runner.SetWorkers(0)
	render := func(workers int) []byte {
		runner.SetWorkers(workers)
		res, err := Dataset(quickDataset(7))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	for _, workers := range []int{2, 8} {
		if !bytes.Equal(serial, render(workers)) {
			t.Errorf("CSV differs between -parallel 1 and -parallel %d", workers)
		}
	}
	rows := len(scenario.Names()) * rowsPerConfig()
	if lines := bytes.Count(serial, []byte("\n")); lines != 1+rows {
		t.Errorf("CSV has %d lines, want %d (header + %d rows)", lines, 1+rows, rows)
	}
}

// TestLearnedEvalHeldOutMatchesDatasetTestRows pins what LearnedEval
// scores: exactly the (scenario, scaling, trial, sim seed)
// configurations of the full dataset's test rows.
func TestLearnedEvalHeldOutMatchesDatasetTestRows(t *testing.T) {
	cfg := DatasetConfig{Scalings: []float64{1.0}, Trials: 2, Seed: 3}
	full, err := Dataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, test := full.SplitRows()
	want := map[sweepConfig]bool{}
	for _, r := range test {
		want[sweepConfig{r.Scenario, r.Scaling, r.Trial, r.SimSeed, r.Split}] = true
	}
	configs, err := heldOut(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := map[sweepConfig]bool{}
	for _, c := range configs {
		got[c] = true
	}
	if len(want) == 0 || len(got) != len(configs) || !reflect.DeepEqual(got, want) {
		t.Errorf("held-out configurations %v differ from the dataset's test configurations %v", got, want)
	}
}

func TestDatasetRejectsBadConfig(t *testing.T) {
	if _, err := Dataset(DatasetConfig{Scalings: []float64{-1}}); err == nil {
		t.Error("negative scaling accepted")
	}
}

func TestModelInputNamesMatchHeader(t *testing.T) {
	head := CSVHeader()
	names := learned.ModelInputNames()
	if got := head[len(head)-len(names):]; strings.Join(got, ",") != strings.Join(names, ",") {
		t.Errorf("CSV header tail %v != model input names %v", got, names)
	}
	derived := []string{"rate_frac", "log10_capacity", "direct_abw"}
	if got := strings.Join(names[len(names)-3:], ","); got != strings.Join(derived, ",") {
		t.Errorf("input columns must end %v; got %v", derived, names[len(names)-3:])
	}
}

func BenchmarkDataset(b *testing.B) {
	cfg := quickDataset(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Dataset(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
