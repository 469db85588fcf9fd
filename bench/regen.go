package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"abw/internal/exp"
	"abw/internal/runner"
)

// tabler is the piece of every experiment result the check renders.
type tabler interface{ Table() *exp.Table }

// regenSeed is the seed EXPERIMENTS.md is committed at. The workload's
// output check is a byte comparison with that file, so its inputs are
// fixed: -seed changes nothing here, as on the live workload.
const regenSeed = 1

// experiment is one entry of the regen workload. The list mirrors
// cmd/abwsim's catalog at paper scale (default configs, only the seed
// set); a section in EXPERIMENTS.md that none of these produces fails
// the check, which is what catches drift between the two lists.
type experiment struct {
	name  string
	cheap bool // part of the -check pass (well under a second each, bar matrix)
	run   func(seed uint64) (tabler, error)
}

func wrap[T tabler](r T, err error) (tabler, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

var experiments = []experiment{
	{"fig1", true, func(s uint64) (tabler, error) { return wrap(exp.Figure1(exp.Figure1Config{Seed: s})) }},
	{"fig2", true, func(s uint64) (tabler, error) { return wrap(exp.Figure2(exp.Figure2Config{Seed: s})) }},
	{"table1", true, func(s uint64) (tabler, error) { return wrap(exp.Table1(exp.Table1Config{Seed: s})) }},
	{"fig3", false, func(s uint64) (tabler, error) { return wrap(exp.Figure3(exp.Figure3Config{Seed: s})) }},
	{"fig4", false, func(s uint64) (tabler, error) { return wrap(exp.Figure4(exp.Figure4Config{Seed: s})) }},
	{"fig5", true, func(s uint64) (tabler, error) { return wrap(exp.Figure5(exp.Figure5Config{Seed: s})) }},
	{"fig6", true, func(s uint64) (tabler, error) { return wrap(exp.Figure6(exp.Figure6Config{Seed: s})) }},
	{"fig7", false, func(s uint64) (tabler, error) { return wrap(exp.Figure7(exp.Figure7Config{Seed: s})) }},
	{"latency", false, func(s uint64) (tabler, error) {
		return wrap(exp.LatencyAccuracy(exp.LatencyAccuracyConfig{Seed: s}))
	}},
	{"narrowtight", true, func(s uint64) (tabler, error) {
		return wrap(exp.NarrowVsTight(exp.NarrowVsTightConfig{Seed: s}))
	}},
	{"vartime", true, func(s uint64) (tabler, error) {
		return wrap(exp.VarianceTimescale(exp.VarTimeConfig{Seed: s}))
	}},
	{"compare", true, func(s uint64) (tabler, error) { return wrap(exp.CompareTools(exp.CompareConfig{Seed: s})) }},
	{"matrix", true, func(s uint64) (tabler, error) { return wrap(exp.Matrix(exp.MatrixConfig{Seed: s})) }},
	{"dataset", false, func(s uint64) (tabler, error) { return wrap(exp.Dataset(exp.DatasetConfig{Seed: s})) }},
	{"learnedeval", false, func(s uint64) (tabler, error) {
		return wrap(exp.LearnedEval(exp.LearnedEvalConfig{Seed: s}))
	}},
}

func matrixExperiment() experiment {
	for _, e := range experiments {
		if e.name == "matrix" {
			return e
		}
	}
	panic("regen: no matrix experiment in the list")
}

// sections splits a results document into one chunk per "### " heading,
// keyed by the heading line, plus the preamble before the first one.
// Order is returned for stable reporting.
func sections(doc string) (map[string]string, []string) {
	const preamble = "(preamble)"
	out := map[string]string{}
	var order []string
	title := preamble
	var body strings.Builder
	flush := func() {
		out[title] = body.String()
		order = append(order, title)
		body.Reset()
	}
	for _, line := range strings.SplitAfter(doc, "\n") {
		if strings.HasPrefix(line, "### ") {
			flush()
			title = strings.TrimSpace(line)
		}
		body.WriteString(line)
	}
	flush()
	return out, order
}

// matrixRepeats is how often the matrix experiment runs in all: once
// inside the pass and four more times after it, so the workload's
// latency (ROADMAP: "wall time to regenerate EXPERIMENTS.md, and the
// matrix inside it") is a median of five and not one 1.7 s sample.
const matrixRepeats = 5

// runRegen regenerates the experiments, checks them byte for byte
// against the committed EXPERIMENTS.md, and times each one. One pass is
// the unit of work: passes repeat until -seconds has elapsed, and one
// full pass is longer than that on this hardware, so a run is one pass.
func runRegen(o opts, res *result) error {
	runner.SetWorkers(2)
	committed, err := os.ReadFile(filepath.Join(o.root, "EXPERIMENTS.md"))
	if err != nil {
		return err
	}
	want, wantOrder := sections(string(committed))
	produced := map[string]bool{}
	// sameAsCommitted renders a result and compares it with its section.
	sameAsCommitted := func(r tabler) bool {
		tab := r.Table()
		var b strings.Builder
		tab.Markdown(&b)
		title := "### " + tab.Title
		produced[title] = true
		switch w, ok := want[title]; {
		case !ok:
			res.fail(1, "regenerated section %q is not in EXPERIMENTS.md", title)
		case b.String() != w:
			res.fail(1, "section %q differs from the committed EXPERIMENTS.md", title)
		default:
			return true
		}
		return false
	}
	// timed runs one experiment inside a span and checks its output.
	timed := func(span string, e experiment, parent, op int) (tabler, time.Duration, bool) {
		id := o.tr.begin(span, parent, op)
		t0 := time.Now()
		r, err := e.run(regenSeed)
		d := time.Since(t0)
		o.tr.end(id)
		res.attempted++
		if err != nil {
			res.fail(1, "%s: %v", e.name, err)
			return nil, d, false
		}
		return r, d, sameAsCommitted(r)
	}

	root := o.tr.begin("regen", -1, 0)
	var matrixMs []float64
	var matrix *exp.MatrixResult
	var passes units
	var wall, cpu float64
	identical := 0
	for start := time.Now(); len(passes.rate) == 0 || (!o.short && time.Since(start).Seconds() < o.seconds); {
		pass := len(passes.rate)
		ops := 0
		cpu0, t0 := cpuSeconds(), time.Now()
		for i, e := range experiments {
			if o.short && !e.cheap {
				continue
			}
			r, d, same := timed("exp."+e.name, e, root, pass*len(experiments)+i)
			if r == nil {
				continue
			}
			ops++
			if same && pass == 0 {
				identical++
			}
			if m, ok := r.(*exp.MatrixResult); ok {
				matrix = m
				matrixMs = append(matrixMs, ms(d))
			}
		}
		if ops == 0 {
			return fmt.Errorf("regen: no experiment completed")
		}
		w, c := time.Since(t0), cpuSeconds()-cpu0
		passes.add(ops, w, c)
		wall += w.Seconds()
		cpu += c
	}
	o.tr.end(root)
	n := float64(len(passes.rate))
	sectionsProduced := len(produced)

	// Every committed section must have been produced (a -check pass
	// skips the expensive experiments and therefore this check).
	if !o.short {
		for _, title := range wantOrder[1:] {
			if !produced[title] {
				res.fail(1, "section %q in EXPERIMENTS.md but no experiment produced it (catalog drift)", title)
			}
		}
	}
	res.note("regen: %d/%d sections byte-identical to EXPERIMENTS.md (experiments always run at seed %d)", identical, sectionsProduced, regenSeed)

	// The matrix again, outside the pass: its wall time is the
	// workload's latency, and every repeat must give the same bytes.
	for k := 1; !o.short && len(matrixMs) > 0 && len(matrixMs) < matrixRepeats; k++ {
		r, d, _ := timed("matrix.repeat", matrixExperiment(), -1, k)
		if r == nil {
			break
		}
		matrixMs = append(matrixMs, ms(d))
	}

	// Matrix accuracy against the analytic truth.
	var relErr []float64
	if matrix != nil {
		truth := map[string]float64{}
		for _, sc := range matrix.Scenarios {
			truth[sc.Name] = sc.TrueAvailBwMbps
		}
		for _, c := range matrix.Cells {
			res.attempted++
			tr := truth[c.Scenario]
			if c.Err != nil || c.Report == nil || tr <= 0 {
				res.fail(1, "matrix cell %s/%s failed: %v", c.Scenario, c.Tool, c.Err)
				continue
			}
			e := math.Abs(c.Report.Point.MbpsOf()-tr) / tr
			if !finite(e) {
				res.fail(1, "matrix cell %s/%s is not finite", c.Scenario, c.Tool)
				continue
			}
			relErr = append(relErr, e)
		}
	}
	if len(matrixMs) == 0 {
		return fmt.Errorf("regen: the matrix experiment did not complete")
	}

	passes.report(res, "pass(es)")
	res.latency(matrixMs)
	res.layer["regen.wall_s"] = wall / n
	res.layer["regen.cpu_s"] = cpu / n
	res.layer["regen.sections_identical"] = float64(identical)
	res.layer["matrix.rel_err_p50"] = percentile(relErr, 0.50)
	res.layer["matrix.rel_err_p90"] = percentile(relErr, 0.90)
	res.layer["runner.parallel_eff"] = cpu / (2 * wall)
	res.note("regen: %.0f pass(es), %.2f s wall, %.2f s CPU per pass, %d matrix cells", n, wall/n, cpu/n, len(relErr))
	if o.tr != nil {
		// The matrix repeats have their own span name and are not rungs.
		var spanSum float64
		for _, e := range experiments {
			ws := o.tr.durationsMs("exp." + e.name)
			res.layer["exp."+e.name+".wall_s"] = mean(ws) / 1e3
			spanSum += sum(ws) / 1e3
		}
		res.layer["exp.span_sum_s"] = spanSum / n
		// The ladder's rule: the end-to-end row equals the sum of its rungs.
		if math.Abs(spanSum-wall) > 0.10*wall {
			res.fail(1, "experiment spans sum to %.2f s but the passes took %.2f s", spanSum, wall)
		}
	}
	return nil
}
