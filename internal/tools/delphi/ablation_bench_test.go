package delphi_test

import (
	"context"
	"testing"

	"abw/internal/core"
	"abw/internal/stats"
	"abw/internal/tools/delphi"
	"abw/internal/tools/toolstest"
)

// BenchmarkAblationPairsVsTrains contrasts 2-packet and 100-packet
// direct probing at an equal packet budget: the quantitative content of
// fallacy 4 at the estimator level.
func BenchmarkAblationPairsVsTrains(b *testing.B) {
	run := func(b *testing.B, trainLen, trains int, metric string) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			sc := toolstest.New(toolstest.Options{Model: toolstest.Poisson, Seed: toolstest.Seed(uint64(i + 1))})
			est, err := delphi.New(core.Params{
				Capacity: sc.Capacity, StreamLen: trainLen, Repeat: trains,
			})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := toolstest.Estimate(context.Background(), est, sc.Transport)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(stats.RelativeError(rep.Point.MbpsOf(), 25), metric)
		}
	}
	b.Run("pairs-2x500", func(b *testing.B) { run(b, 2, 500, "eps") })
	b.Run("trains-100x10", func(b *testing.B) { run(b, 100, 10, "eps") })
}
