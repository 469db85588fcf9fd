package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0.05, 15}, {0.30, 20}, {0.40, 20}, {0.50, 35}, {0.95, 50}, {1.00, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %.2f) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// The input must not be reordered: callers keep using it.
	in := []float64{3, 1, 2}
	percentile(in, 0.5)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("percentile sorted its input: %v", in)
	}
}

// The expected values are what Python prints for
// statistics.quantiles(xs, n=4), the rule the acceptance is written in.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, [3]float64{10, 23, 38}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if got := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relIQR = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "cell", Start: 0, End: 100, Parent: -1},
		{Name: "compile", Start: 5, End: 25, Parent: 0},
		{Name: "estimate", Start: 30, End: 90, Parent: 0},
		{Name: "probe", Start: 35, End: 55, Parent: 2},
		{Name: "probe", Start: 60, End: 85, Parent: 2},
		{Name: "late", Start: 95, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "open", Start: 40, End: -1, Parent: 2},  // never ended: counts nothing
	}
	want := []int64{100 - 20 - 60 - 5, 20, 60 - 20 - 25, 20, 25, 25, -41}
	got := selfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 || tr.durationsMs("x") != nil {
		t.Errorf("a nil tracer recorded something")
	}
	on := newTracer()
	a := on.begin("exp.fig1", -1, 0)
	on.end(a)
	on.end(on.begin("exp.fig10", -1, 1))
	if n := len(on.durationsMs("exp.fig1")); n != 1 {
		t.Errorf("durationsMs(exp.fig1) matched %d spans, want 1 (not exp.fig10)", n)
	}
}

func TestSectionsSplitOnH3(t *testing.T) {
	doc := "# Title\n\nintro\n\n### A\n\n| x |\n\n> note\n\n### B: with | pipe\nbody\n#### deeper stays in B\n"
	got, order := sections(doc)
	if want := []string{"(preamble)", "### A", "### B: with | pipe"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %q, want %q", order, want)
	}
	if got["(preamble)"] != "# Title\n\nintro\n\n" {
		t.Errorf("preamble = %q", got["(preamble)"])
	}
	if got["### A"] != "### A\n\n| x |\n\n> note\n\n" {
		t.Errorf("section A = %q", got["### A"])
	}
	if got["### B: with | pipe"] != "### B: with | pipe\nbody\n#### deeper stays in B\n" {
		t.Errorf("section B = %q", got["### B: with | pipe"])
	}
	// Splitting loses nothing: the chunks concatenate back to the doc.
	var joined string
	for _, title := range order {
		joined += got[title]
	}
	if joined != doc {
		t.Errorf("sections do not concatenate back to the document")
	}
}

func TestMetricsTextCheck(t *testing.T) {
	good := "# HELP a_total help\n# TYPE a_total counter\na_total 3\nb{target=\"edge 1\",tool=\"spruce\"} 4.5e+07\n"
	if err := checkMetricsText(good); err != nil {
		t.Errorf("good exposition rejected: %v", err)
	}
	for _, bad := range []string{"", "a_total\n", "a_total three\n", "b{x=\"1\" 4\n", "9lives 1\n"} {
		if err := checkMetricsText(bad); err == nil {
			t.Errorf("bad exposition %q accepted", bad)
		}
	}
}

// BENCHMARK.json and the tables in metrics.go are two copies of one
// list; the driver reads the first and the program prints the second.
func TestManifestMatchesTables(t *testing.T) {
	mf, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range compareManifest(mf) {
		t.Error(d)
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}

func TestUnitsReportMedians(t *testing.T) {
	var u units
	u.add(100, time.Second, 0.5)            // 100/s, 5000 us/op
	u.add(100, 2*time.Second, 1.0)          // 50/s, 10000 us/op
	u.add(100, 100*time.Millisecond, 0.001) // 1000/s: one fast outlier
	u.add(0, time.Second, 1)                // no operations: not a sample
	res := newResult()
	u.report(res, "units")
	if got := res.e2e["throughput"]; got != 100 {
		t.Errorf("throughput = %v, want the median rate 100", got)
	}
	if got := res.layer["cpu.us_per_op"]; got != 5000 {
		t.Errorf("cpu.us_per_op = %v, want the median 5000", got)
	}
	if u.ops != 300 || len(u.rate) != 3 {
		t.Errorf("units counted %d ops in %d samples, want 300 in 3", u.ops, len(u.rate))
	}
}
