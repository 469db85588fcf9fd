// Benchmarks regenerating every table and figure of the paper. Each
// benchmark runs a reduced-size configuration of the corresponding
// experiment so a full -bench=. pass stays in the minutes range;
// cmd/abwsim runs the paper-scale versions, and the per-tool ablation
// benchmarks live with their tools (internal/tools/*/ablation_bench_test.go). Custom metrics attach the scientifically
// relevant quantity of each experiment (error, ratio, Mbps) to the
// benchmark output, so a bench run doubles as a regression record of the
// reproduced shapes.
package abw_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"abw/internal/exp"
	"abw/internal/runner"
	"abw/internal/tools/toolstest"
	"abw/internal/unit"
)

// BenchmarkFigure1 regenerates the sampling-variability CDFs (pitfall 1).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Figure1(exp.Figure1Config{
			Trials:    120,
			TraceSpan: 10 * time.Second,
			Seed:      uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		// Spread of the 1ms error distribution: the figure's headline.
		s := res.Series[0]
		b.ReportMetric(s.CDF.Quantile(0.95)-s.CDF.Quantile(0.05), "eps-spread-1ms")
		b.ReportMetric(res.Series[2].CDF.Quantile(0.95)-res.Series[2].CDF.Quantile(0.05), "eps-spread-100ms")
	}
}

// BenchmarkFigure2 regenerates the duration-vs-timescale comparison
// (pitfall 2).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Figure2(exp.Figure2Config{Streams: 50, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		first, last := res.Points[0], res.Points[len(res.Points)-1]
		b.ReportMetric(first.SampleSD/first.PopulationSD, "sd-ratio-25ms")
		b.ReportMetric(last.SampleSD/last.PopulationSD, "sd-ratio-200ms")
	}
}

// BenchmarkTable1 regenerates the cross-packet-size error table
// (fallacy 4).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Table1(exp.Table1Config{Trials: 10, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		e40, _ := res.Cell(40, 10)
		e1500, _ := res.Cell(1500, 10)
		b.ReportMetric(e40, "eps-40B-k10")
		b.ReportMetric(e1500, "eps-1500B-k10")
	}
}

// BenchmarkFigure3 regenerates the burstiness response curves
// (pitfall 6).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Figure3(exp.Figure3Config{Streams: 100, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			if s.Model == exp.ModelPareto {
				r, _ := s.RatioAt(22.5 * unit.Mbps)
				b.ReportMetric(r, "pareto-ratio-below-A")
			}
		}
	}
}

// BenchmarkFigure4 regenerates the multiple-bottleneck curves
// (pitfall 7).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Figure4(exp.Figure4Config{Streams: 80, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			if s.TightLinks == 5 {
				r, _ := s.RatioAt(25 * unit.Mbps)
				b.ReportMetric(r, "ratio-at-A-5links")
			}
		}
	}
}

// BenchmarkFigure5 regenerates the OWD-trend-vs-ratio demonstration
// (fallacy 8).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Figure5(exp.Figure5Config{Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Above.Trend.PCT, "pct-above")
		b.ReportMetric(res.Below.Trend.PCT, "pct-below")
	}
}

// BenchmarkFigure6 regenerates the variation-range sample path
// (fallacy 9).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Figure6(exp.Figure6Config{Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Q95-res.Q05, "range-width-mbps")
	}
}

// BenchmarkFigure7 regenerates the TCP-vs-avail-bw curves (pitfall 10).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Figure7(exp.Figure7Config{
			Windows:  []int{4, 256},
			Duration: 10 * time.Second,
			Seed:     uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			v, _ := s.At(256)
			switch s.CrossType {
			case exp.CrossBufferLimited:
				b.ReportMetric(v, "responsive-wr256-mbps")
			case exp.CrossParetoUDP:
				b.ReportMetric(v, "unresponsive-wr256-mbps")
			}
		}
	}
}

// BenchmarkLatencyAccuracy regenerates the fallacy-3 tradeoff grid.
func BenchmarkLatencyAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.LatencyAccuracy(exp.LatencyAccuracyConfig{Trials: 8, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		short, _ := res.Cell(10*time.Millisecond, 5)
		long, _ := res.Cell(200*time.Millisecond, 80)
		b.ReportMetric(short.RMSError, "rms-short-few")
		b.ReportMetric(long.RMSError, "rms-long-many")
	}
}

// BenchmarkNarrowVsTight regenerates the pitfall-5 comparison.
func BenchmarkNarrowVsTight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.NarrowVsTight(exp.NarrowVsTightConfig{Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WithNarrowCapacity-res.TrueAvailBwMbps, "narrow-bias-mbps")
	}
}

// BenchmarkParallelScaling runs the same Figure 3 grid with 1 worker
// (serial execution) and one worker per CPU, quantifying the trial
// engine's wall-clock speedup. The results are bit-identical at every
// worker count (TestParallelDeterminism); only the elapsed time moves.
// On a 4-core machine the all-cores case is expected to finish the grid
// at least ~2x faster than workers-1.
func BenchmarkParallelScaling(b *testing.B) {
	cfg := exp.Figure3Config{Streams: 40, Seed: 1}
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			runner.SetWorkers(w)
			defer runner.SetWorkers(0)
			for i := 0; i < b.N; i++ {
				if _, err := exp.Figure3(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatrix runs the full tools×scenarios matrix in quick mode:
// every registered end-to-end tool against every cataloged scenario.
// This is the workload the hot-path pooling was built for — dozens of
// long-horizon scenario compilations, none of them recorded, probed
// concurrently.
func BenchmarkMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Matrix(exp.MatrixConfig{Quick: true, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		failed := 0
		for _, c := range res.Cells {
			if c.Err != nil {
				failed++
			}
		}
		b.ReportMetric(float64(len(res.Cells)), "cells")
		b.ReportMetric(float64(failed), "failed-cells")
	}
}

// BenchmarkSimulatorThroughput measures raw simulator event throughput:
// the cost driver behind every experiment above.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := toolstest.New(toolstest.Options{
			Model:   toolstest.Poisson,
			Seed:    toolstest.Seed(uint64(i + 1)),
			Horizon: time.Second,
		})
		sc.Sim.RunUntil(time.Second)
		if sc.Path.Links[0].Dropped() != 0 {
			b.Fatal("unexpected drops")
		}
	}
}
