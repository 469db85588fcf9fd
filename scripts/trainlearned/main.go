// Command trainlearned regenerates the learned estimator's committed
// weight file from the dataset experiment: sweep the scenario catalog ×
// cross-traffic scalings × seeds, fit the ridge + k-NN model on the
// train split, report held-out error, and write the weights JSON that
// internal/tools/learned embeds. The whole pipeline is deterministic —
// same flags, byte-identical weight file:
//
//	go run ./scripts/trainlearned                  # rewrites the embedded weights
//	go run ./scripts/trainlearned -trials 5        # more seeds per (scenario, scaling)
//	go run ./scripts/trainlearned -csv dataset.csv # also dump the training rows
//	go run ./scripts/trainlearned -out /tmp/w.json # write elsewhere (for comparison)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"abw/internal/exp"
	"abw/internal/runner"
	"abw/internal/tools/learned"
)

func main() {
	var (
		out      = flag.String("out", "internal/tools/learned/weights.json", "weight file to write")
		csvPath  = flag.String("csv", "", "also write the generated dataset as CSV here")
		trials   = flag.Int("trials", 3, "seeds per (scenario, scaling)")
		seed     = flag.Uint64("seed", 1, "dataset and split seed")
		testFrac = flag.Float64("testfrac", 0.25, "held-out fraction of (scenario, scaling, trial) configurations")
		lambda   = flag.Float64("lambda", 100, "ridge penalty")
		k        = flag.Int("k", 5, "kNN neighborhood size")
		blend    = flag.Float64("blend", 0.05, "ridge weight in the ridge/kNN blend")
		maxknn   = flag.Int("maxknn", 6000, "kNN memory budget (training rows kept in the weight file)")
		scalings = flag.String("scalings", "0.25,0.5,0.75,1,1.25,1.5", "comma-separated cross-traffic scalings to sweep")
		parallel = flag.Int("parallel", 0, "trial-engine workers (0 = one per CPU)")
	)
	flag.Parse()
	runner.SetWorkers(*parallel)

	var scale []float64
	for _, s := range strings.Split(*scalings, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fatal(fmt.Errorf("-scalings: %w", err))
		}
		scale = append(scale, v)
	}

	cfg := exp.DatasetConfig{Scalings: scale, Trials: *trials, TestFrac: *testFrac, Seed: *seed}
	fmt.Fprintf(os.Stderr, "trainlearned: sweeping catalog (trials=%d seed=%d)...\n", *trials, *seed)
	res, err := exp.Dataset(cfg)
	if err != nil {
		fatal(err)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	train, test := res.SplitRows()
	X := make([][]float64, len(train))
	y := make([]float64, len(train))
	for i, r := range train {
		X[i] = r.ModelInput()
		y[i] = r.Target
	}
	w, err := learned.Train(X, y, learned.TrainConfig{
		Lambda: *lambda, K: *k, Blend: *blend, MaxKNNRows: *maxknn,
		Plan:         learned.DefaultPlan(),
		FeatureNames: learned.ModelInputNames(),
		Note: fmt.Sprintf("trained on %d rows (%d held out) from the catalog sweep: scalings=%s trials=%d testfrac=%g seed=%d",
			len(train), len(test), *scalings, *trials, *testFrac, *seed),
	})
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "train rows %d, test rows %d\n", len(train), len(test))
	report("train", train, w)
	report("test ", test, w)

	data, err := json.MarshalIndent(w, "", " ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *out, len(data))
}

// report prints the split's mean absolute error, in the dimensionless
// target A/C and in Mbps, plus the worst scenarios — the quick read on
// whether a retrain helped.
func report(label string, rows []exp.DatasetRow, w *learned.Weights) {
	if len(rows) == 0 {
		return
	}
	var sumAC, sumMbps float64
	perScen := map[string][]float64{}
	for _, r := range rows {
		pred, err := w.Predict(r.ModelInput())
		if err != nil {
			fatal(err)
		}
		errAC := math.Abs(pred - r.Target)
		sumAC += errAC
		sumMbps += errAC * r.CapacityMbps
		perScen[r.Scenario] = append(perScen[r.Scenario], errAC*r.CapacityMbps)
	}
	n := float64(len(rows))
	fmt.Fprintf(os.Stderr, "%s MAE: %.4f A/C (%.2f Mbps) over %d rows\n", label, sumAC/n, sumMbps/n, len(rows))

	type scenErr struct {
		name string
		mae  float64
	}
	var worst []scenErr
	for name, errs := range perScen {
		var s float64
		for _, e := range errs {
			s += e
		}
		worst = append(worst, scenErr{name, s / float64(len(errs))})
	}
	sort.Slice(worst, func(i, j int) bool {
		if worst[i].mae != worst[j].mae {
			return worst[i].mae > worst[j].mae
		}
		return worst[i].name < worst[j].name
	})
	for i, s := range worst {
		if i >= 3 {
			break
		}
		fmt.Fprintf(os.Stderr, "  worst %s: %-14s %.2f Mbps\n", label, s.name, s.mae)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trainlearned:", err)
	os.Exit(1)
}
