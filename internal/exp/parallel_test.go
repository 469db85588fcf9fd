package exp

import (
	"reflect"
	"testing"
	"time"

	"abw/internal/runner"
)

// TestParallelDeterminism is the runner's contract applied end-to-end:
// with a fixed seed, the experiments produce bit-identical results with
// 1 worker (serial execution) and 8 workers, because every trial derives
// its randomness from the seed and its own index.
func TestParallelDeterminism(t *testing.T) {
	defer runner.SetWorkers(0)

	fig1 := func() (any, error) {
		return Figure1(Figure1Config{Trials: 60, TraceSpan: 8 * time.Second, Seed: 7})
	}
	table1 := func() (any, error) {
		return Table1(Table1Config{Trials: 6, Seed: 7})
	}
	fig3 := func() (any, error) {
		return Figure3(Figure3Config{Streams: 20, Seed: 7})
	}
	latency := func() (any, error) {
		return LatencyAccuracy(LatencyAccuracyConfig{Trials: 2, Seed: 7})
	}
	matrix := func() (any, error) {
		return Matrix(MatrixConfig{Quick: true, Seed: 7})
	}
	dataset := func() (any, error) {
		return Dataset(quickDataset(7))
	}
	cases := []struct {
		name string
		run  func() (any, error)
	}{
		{"Figure1", fig1},
		{"Table1", table1},
		{"Figure3", fig3},
		{"LatencyAccuracy", latency},
		{"Matrix", matrix},
		{"Dataset", dataset},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runner.SetWorkers(1)
			serial, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			runner.SetWorkers(8)
			parallel, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("%s: -parallel 1 and -parallel 8 results differ", tc.name)
			}
		})
	}
}
