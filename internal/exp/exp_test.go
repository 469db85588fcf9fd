package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"abw/internal/stats"
	"abw/internal/unit"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "a", "bb", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1SpreadShrinksWithTimescale(t *testing.T) {
	res, err := Figure1(Figure1Config{
		Trials:    150,
		TraceSpan: 12 * time.Second,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(res.Series))
	}
	spread := func(s Figure1Series) float64 {
		return s.CDF.Quantile(0.95) - s.CDF.Quantile(0.05)
	}
	s1, s10, s100 := spread(res.Series[0]), spread(res.Series[1]), spread(res.Series[2])
	if !(s1 > s10 && s10 > s100) {
		t.Errorf("error spread should shrink with tau: 1ms=%.3f 10ms=%.3f 100ms=%.3f", s1, s10, s100)
	}
	// The paper's headline: at 1ms, 20 samples are NOT enough for
	// reliable 5% accuracy; at 100ms they are much better.
	if res.Series[0].WithinPct(0.05) > 0.9 {
		t.Errorf("1ms errors implausibly tight: %.2f within 5%%", res.Series[0].WithinPct(0.05))
	}
	if res.Series[2].WithinPct(0.05) < res.Series[0].WithinPct(0.05) {
		t.Error("100ms should beat 1ms on P(|eps|<5%)")
	}
	if res.Table() == nil {
		t.Error("nil table")
	}
}

func TestFigure2SampleTracksPopulation(t *testing.T) {
	res, err := Figure2(Figure2Config{Streams: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(fig2Durations) {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.SampleSD <= 0 || p.PopulationSD <= 0 {
			t.Fatalf("degenerate SDs at %v: %+v", p.Duration, p)
		}
		ratio := p.SampleSD / p.PopulationSD
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("duration %v: sample SD %.2f vs population %.2f (ratio %.2f), want agreement",
				p.Duration, p.SampleSD, p.PopulationSD, ratio)
		}
	}
	// Variance falls with the averaging timescale (both curves).
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if !(last.PopulationSD < first.PopulationSD) {
		t.Errorf("population SD should fall with duration: %.2f → %.2f", first.PopulationSD, last.PopulationSD)
	}
	if !(last.SampleSD < first.SampleSD) {
		t.Errorf("sample SD should fall with duration: %.2f → %.2f", first.SampleSD, last.SampleSD)
	}
}

func TestTable1ErrorGrowsWithCrossPacketSize(t *testing.T) {
	res, err := Table1(Table1Config{Trials: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	small10, ok := res.Cell(40, 10)
	if !ok {
		t.Fatal("missing cell 40/10")
	}
	large10, _ := res.Cell(1500, 10)
	large100, _ := res.Cell(1500, 100)
	if large10 <= small10 {
		t.Errorf("k=10: error with 1500B cross (%.3f) should exceed 40B cross (%.3f)", large10, small10)
	}
	if large100 >= large10 {
		t.Errorf("1500B: error should fall with k: k=10 %.3f vs k=100 %.3f", large10, large100)
	}
	if small10 > 0.08 {
		t.Errorf("40B cross error %.3f should be near zero (paper reports 0)", small10)
	}
	if res.Table() == nil {
		t.Error("nil table")
	}
}

func TestFigure3BurstinessOrdering(t *testing.T) {
	res, err := Figure3(Figure3Config{Streams: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[CrossModel]*RatioSeries{}
	for i := range res.Series {
		byModel[res.Series[i].Model] = &res.Series[i]
	}
	// CBR at Ri < A: ratio ≈ 1 (the fluid prediction).
	if r, _ := byModel[ModelCBR].RatioAt(22.5 * unit.Mbps); r < 0.995 {
		t.Errorf("CBR ratio at 22.5 < A: %.4f, want ~1", r)
	}
	// All models at Ri > A: ratio < 1.
	for m, s := range byModel {
		if r, _ := s.RatioAt(27.5 * unit.Mbps); r >= 1 {
			t.Errorf("%s ratio at 27.5 > A: %.4f, want < 1", m, r)
		}
	}
	// The burstiness signature just below A: bursty traffic compresses
	// the stream before the fluid knee.
	cbr, _ := byModel[ModelCBR].RatioAt(22.5 * unit.Mbps)
	poisson, _ := byModel[ModelPoisson].RatioAt(22.5 * unit.Mbps)
	pareto, _ := byModel[ModelPareto].RatioAt(22.5 * unit.Mbps)
	if !(pareto < poisson && poisson < cbr) {
		t.Errorf("burstiness ordering at Ri=22.5: pareto %.4f, poisson %.4f, cbr %.4f", pareto, poisson, cbr)
	}
}

func TestFigure4MoreTightLinksCompressMore(t *testing.T) {
	res, err := Figure4(Figure4Config{Streams: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	get := func(h int) float64 {
		for _, s := range res.Series {
			if s.TightLinks == h {
				r, _ := s.RatioAt(25 * unit.Mbps)
				return r
			}
		}
		t.Fatalf("missing series for %d links", h)
		return 0
	}
	r1, r3, r5 := get(1), get(3), get(5)
	if !(r1 > r3 && r3 > r5) {
		t.Errorf("Ro/Ri at Ri=A should fall with tight links: 1→%.4f 3→%.4f 5→%.4f", r1, r3, r5)
	}
	if res.Table() == nil {
		t.Error("nil table")
	}
}

func TestFigure5TrendBeatsRatio(t *testing.T) {
	res, err := Figure5(Figure5Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Above-A stream: rate comparison and trend both say overload.
	if res.Above.OutputMbps >= res.Above.InputMbps {
		t.Errorf("above stream: Ro %.2f should be < Ri %.2f", res.Above.OutputMbps, res.Above.InputMbps)
	}
	if res.Above.Trend.Verdict != stats.TrendIncreasing {
		t.Errorf("above stream: trend = %v, want increasing", res.Above.Trend.Verdict)
	}
	// Below-A stream with a late burst: the rate comparison is fooled...
	if res.Below.OutputMbps >= res.Below.InputMbps-0.01 {
		t.Errorf("below stream: burst should depress Ro (%.2f vs Ri %.2f)", res.Below.OutputMbps, res.Below.InputMbps)
	}
	// ...but the trend analysis is not.
	if res.Below.Trend.Verdict == stats.TrendIncreasing {
		t.Errorf("below stream misclassified as increasing (PCT=%.2f PDT=%.2f)",
			res.Below.Trend.PCT, res.Below.Trend.PDT)
	}
	if len(res.Above.RelOWDsMs) < 150 || len(res.Below.RelOWDsMs) < 150 {
		t.Error("OWD series incomplete")
	}
}

func TestFigure6VariationRange(t *testing.T) {
	res, err := Figure6(Figure6Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SeriesMbps) != 2000 {
		t.Errorf("series windows = %d, want 2000 (20s / 10ms)", len(res.SeriesMbps))
	}
	if res.Max-res.Min < 25 {
		t.Errorf("variation range = [%.0f, %.0f], want a wide band like the paper's 60–110", res.Min, res.Max)
	}
	if res.MeanMbps < 60 || res.MeanMbps > 110 {
		t.Errorf("mean avail-bw = %.1f, want in the 60–110 band", res.MeanMbps)
	}
}

func TestFigure7SignFlips(t *testing.T) {
	res, err := Figure7(Figure7Config{
		Windows:  []int{4, 256},
		Duration: 12 * time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := res.AvailBwMbps
	get := func(ct Figure7CrossType, wr int) float64 {
		for _, s := range res.Series {
			if s.CrossType == ct {
				v, _ := s.At(wr)
				return v
			}
		}
		t.Fatalf("missing series %s", ct)
		return 0
	}
	// Small window: throughput far below avail-bw for every cross type
	// (window-limited regime).
	for _, ct := range fig7CrossTypes {
		if v := get(ct, 4); v >= a {
			t.Errorf("%s at Wr=4: %.2f Mbps, want < avail-bw %.0f", ct, v, a)
		}
	}
	// Large window: responsive (buffer-limited TCP) cross traffic cedes
	// bandwidth — throughput exceeds the nominal avail-bw; unresponsive
	// UDP does not allow that.
	if v := get(CrossBufferLimited, 256); v <= a {
		t.Errorf("buffer-limited cross at Wr=256: %.2f Mbps, want > avail-bw %.0f", v, a)
	}
	if v := get(CrossParetoUDP, 256); v > a*1.15 {
		t.Errorf("Pareto UDP cross at Wr=256: %.2f Mbps, want <= ~avail-bw %.0f", v, a)
	}
	if res.Table() == nil {
		t.Error("nil table")
	}
}

func TestLatencyAccuracyTradeoff(t *testing.T) {
	res, err := LatencyAccuracy(LatencyAccuracyConfig{Trials: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	short5, _ := res.Cell(10*time.Millisecond, 5)
	long80, _ := res.Cell(200*time.Millisecond, 80)
	if long80.RMSError >= short5.RMSError {
		t.Errorf("more+longer streams should err less: short/few %.3f vs long/many %.3f",
			short5.RMSError, long80.RMSError)
	}
	if long80.ProbingTime <= short5.ProbingTime {
		t.Error("more+longer streams must take longer — that is the tradeoff")
	}
	if res.Table() == nil {
		t.Error("nil table")
	}
}

func TestNarrowVsTightPitfall(t *testing.T) {
	res, err := NarrowVsTight(NarrowVsTightConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	errTight := abs(res.WithTightCapacity-res.TrueAvailBwMbps) / res.TrueAvailBwMbps
	errNarrow := abs(res.WithNarrowCapacity-res.TrueAvailBwMbps) / res.TrueAvailBwMbps
	if errNarrow <= errTight {
		t.Errorf("narrow-capacity estimate should be worse: tight %.3f vs narrow %.3f", errTight, errNarrow)
	}
	if res.Table() == nil {
		t.Error("nil table")
	}
}

// TestSeedZeroIsASeed pins that 0 is a seed like any other: no config
// maps it onto another seed, so seeds 0 and 1 give different tables.
func TestSeedZeroIsASeed(t *testing.T) {
	cases := map[string]func(seed uint64) (*Table, error){
		"Figure6": func(seed uint64) (*Table, error) {
			res, err := Figure6(Figure6Config{Seed: seed})
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		},
		"NarrowVsTight": func(seed uint64) (*Table, error) {
			res, err := NarrowVsTight(NarrowVsTightConfig{Seed: seed})
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		},
	}
	for name, run := range cases {
		zero, err := run(0)
		if err != nil {
			t.Fatal(err)
		}
		one, err := run(1)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(zero.Rows, one.Rows) {
			t.Errorf("%s: seed 0 and seed 1 give the same table %v", name, zero.Rows)
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
