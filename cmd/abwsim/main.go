// Command abwsim regenerates the paper's tables and figures on the
// discrete-event simulator.
//
// Usage:
//
//	abwsim -exp fig1           # one experiment
//	abwsim -exp all            # every table and figure
//	abwsim -list               # catalog of experiments and misconceptions
//	abwsim -exp fig3 -quick    # reduced trial counts for a fast pass
//	abwsim -exp fig7 -seed 7   # change the random seed
//	abwsim -exp all -parallel 8            # cap the trial-engine workers
//	abwsim -exp all -json out              # one structured JSON result per experiment
//	abwsim -exp all -json out -md EXPERIMENTS.md   # regenerate the results doc
//
// Output is a text table per experiment, in the same rows/series the
// paper reports, with the paper's qualitative claim attached as a note.
// Experiments run their trials on the internal/runner worker pool; the
// results are bit-identical for every -parallel value.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"abw/internal/core"
	"abw/internal/exp"
	"abw/internal/runner"
	"abw/internal/scenario"
)

func main() {
	var (
		which      = flag.String("exp", "", "experiment: fig1..fig7, table1, latency, narrowtight, matrix, dataset, learnedeval, all")
		list       = flag.Bool("list", false, "list experiments and the misconception catalog")
		quick      = flag.Bool("quick", false, "reduced trial counts (~10x faster)")
		seed       = flag.Uint64("seed", 1, "random seed")
		parallel   = flag.Int("parallel", 0, "trial-engine workers (0 = one per CPU)")
		progress   = flag.Bool("progress", false, "print per-trial progress to stderr")
		jsonDir    = flag.String("json", "", "directory for one structured JSON result per experiment")
		csvPath    = flag.String("csv", "", "with -exp dataset: write the generated rows as CSV here")
		mdPath     = flag.String("md", "", "write the paper-vs-measured markdown doc (EXPERIMENTS.md) here")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (after all experiments) to this file")
	)
	flag.Parse()
	runner.SetWorkers(*parallel)
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abwsim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "abwsim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "abwsim: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // a heap profile is as of the last completed collection
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "abwsim: -memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}
	if *progress {
		runner.SetProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r  %d/%d trials", done, total)
			if done == total {
				fmt.Fprint(os.Stderr, "\r\033[K")
			}
		})
	}
	if *list {
		printCatalog()
		return
	}
	if *which == "" {
		fmt.Fprintln(os.Stderr, "abwsim: pick an experiment with -exp (or -list); see -h")
		os.Exit(2)
	}
	names := []string{*which}
	if *which == "all" {
		names = allExperiments()
	}
	var results []*runner.Result
	for _, name := range names {
		start := time.Now()
		payload, tab, err := run(name, *quick, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abwsim: %s: %v\n", name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		tab.Render(os.Stdout)
		fmt.Printf("  (%s in %v)\n\n", name, elapsed.Round(time.Millisecond))
		res := &runner.Result{
			Name:      name,
			Seed:      *seed,
			Quick:     *quick,
			Workers:   runner.Workers(),
			ElapsedMS: float64(elapsed.Microseconds()) / 1000,
			Payload:   payload,
			Table:     tab,
		}
		results = append(results, res)
		if ds, ok := payload.(*exp.DatasetResult); ok && *csvPath != "" {
			if err := writeDatasetCSV(*csvPath, ds); err != nil {
				fmt.Fprintf(os.Stderr, "abwsim: -csv: %v\n", err)
				os.Exit(1)
			}
		}
		if *jsonDir != "" {
			if _, err := res.WriteJSON(*jsonDir); err != nil {
				fmt.Fprintf(os.Stderr, "abwsim: %s: %v\n", name, err)
				os.Exit(1)
			}
		}
	}
	if *mdPath != "" {
		if err := writeMarkdown(*mdPath, results, *quick, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "abwsim: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeDatasetCSV dumps the dataset experiment's rows — the training
// input of scripts/trainlearned — in its deterministic CSV form.
func writeDatasetCSV(path string, ds *exp.DatasetResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ds.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tabler is the piece of every experiment result the CLI renders.
type tabler interface{ Table() *exp.Table }

// experiment is one catalog entry: the single list driving -list,
// "-exp all" ordering, the generated doc's descriptions, and dispatch —
// adding an experiment means adding exactly one entry here.
type experiment struct {
	name, what string
	run        func(quick bool, seed uint64) (tabler, error)
}

var catalog = []experiment{
	{"fig1", "sampling variability of the avail-bw process (CDF of sample-mean error)",
		func(quick bool, seed uint64) (tabler, error) {
			cfg := exp.Figure1Config{Seed: seed}
			if quick {
				cfg.Trials = 120
				cfg.TraceSpan = 10 * time.Second
			}
			return exp.Figure1(cfg)
		}},
	{"fig2", "probing duration = averaging timescale (population vs sample stddev)",
		func(quick bool, seed uint64) (tabler, error) {
			cfg := exp.Figure2Config{Seed: seed}
			if quick {
				cfg.Streams = 40
			}
			return exp.Figure2(cfg)
		}},
	{"table1", "cross-traffic packet size vs packet-pair error",
		func(quick bool, seed uint64) (tabler, error) {
			cfg := exp.Table1Config{Seed: seed}
			if quick {
				cfg.Trials = 8
			}
			return exp.Table1(cfg)
		}},
	{"fig3", "cross-traffic burstiness vs Ro/Ri response",
		func(quick bool, seed uint64) (tabler, error) {
			cfg := exp.Figure3Config{Seed: seed}
			if quick {
				cfg.Streams = 80
			}
			return exp.Figure3(cfg)
		}},
	{"fig4", "multiple tight links vs Ro/Ri response",
		func(quick bool, seed uint64) (tabler, error) {
			cfg := exp.Figure4Config{Seed: seed}
			if quick {
				cfg.Streams = 60
			}
			return exp.Figure4(cfg)
		}},
	{"fig5", "OWD trend analysis vs the Ro/Ri ratio",
		func(_ bool, seed uint64) (tabler, error) {
			return exp.Figure5(exp.Figure5Config{Seed: seed})
		}},
	{"fig6", "variation range of an avail-bw sample path",
		func(_ bool, seed uint64) (tabler, error) {
			return exp.Figure6(exp.Figure6Config{Seed: seed})
		}},
	{"fig7", "bulk TCP throughput vs avail-bw under three cross-traffic types",
		func(quick bool, seed uint64) (tabler, error) {
			cfg := exp.Figure7Config{Seed: seed}
			if quick {
				cfg.Windows = []int{2, 8, 32, 128, 512}
				cfg.Duration = 12 * time.Second
			}
			return exp.Figure7(cfg)
		}},
	{"latency", "the latency/accuracy tradeoff behind 'faster is better'",
		func(quick bool, seed uint64) (tabler, error) {
			cfg := exp.LatencyAccuracyConfig{Seed: seed}
			if quick {
				cfg.Trials = 8
			}
			return exp.LatencyAccuracy(cfg)
		}},
	{"narrowtight", "narrow-link capacity misused as tight-link capacity",
		func(_ bool, seed uint64) (tabler, error) {
			return exp.NarrowVsTight(exp.NarrowVsTightConfig{Seed: seed})
		}},
	{"vartime", "Eq. (4)/(5): variance decay of A_tau across timescales",
		func(quick bool, seed uint64) (tabler, error) {
			cfg := exp.VarTimeConfig{Seed: seed}
			if quick {
				cfg.TraceSpan = 15 * time.Second
			}
			return exp.VarianceTimescale(cfg)
		}},
	{"compare", "all seven tools on one path with cost columns",
		func(_ bool, seed uint64) (tabler, error) {
			return exp.CompareTools(exp.CompareConfig{Seed: seed})
		}},
	{"matrix", "every registered tool against every cataloged scenario",
		func(quick bool, seed uint64) (tabler, error) {
			return exp.Matrix(exp.MatrixConfig{Quick: quick, Seed: seed})
		}},
	{"dataset", "probe-feature rows swept over catalog × cross-traffic scalings × seeds",
		func(quick bool, seed uint64) (tabler, error) {
			cfg := exp.DatasetConfig{Seed: seed}
			if quick {
				cfg.Scalings = []float64{1.0}
				cfg.Trials = 1
			}
			return exp.Dataset(cfg)
		}},
	{"learnedeval", "learned estimator vs best classical tool on held-out configurations",
		func(quick bool, seed uint64) (tabler, error) {
			cfg := exp.LearnedEvalConfig{Seed: seed}
			if quick {
				cfg.Dataset = exp.DatasetConfig{Scalings: []float64{1.0}, Trials: 2}
			}
			return exp.LearnedEval(cfg)
		}},
}

func allExperiments() []string {
	names := make([]string, len(catalog))
	for i, c := range catalog {
		names[i] = c.name
	}
	return names
}

func describe(name string) string {
	for _, c := range catalog {
		if c.name == name {
			return c.what
		}
	}
	return ""
}

func run(name string, quick bool, seed uint64) (any, *exp.Table, error) {
	for _, e := range catalog {
		if e.name == name {
			r, err := e.run(quick, seed)
			if err != nil {
				return nil, nil, err
			}
			return r, r.Table(), nil
		}
	}
	return nil, nil, fmt.Errorf("unknown experiment %q", name)
}

// writeMarkdown renders the run's structured results as the
// paper-vs-measured document. EXPERIMENTS.md in the repository root is
// this function's output, never hand-edited.
func writeMarkdown(path string, results []*runner.Result, quick bool, seed uint64) error {
	var b strings.Builder
	b.WriteString("# EXPERIMENTS — paper vs measured\n\n")
	b.WriteString("Reproduction of the tables and figures of Jain & Dovrolis,\n")
	b.WriteString("*Ten Fallacies and Pitfalls on End-to-End Available Bandwidth\nEstimation* (IMC 2004).\n\n")
	b.WriteString("**This file is generated.** Regenerate it (and the structured JSON\nit is rendered from) with:\n\n")
	b.WriteString("```sh\ngo run ./cmd/abwsim -exp all")
	if quick {
		b.WriteString(" -quick")
	}
	if seed != 1 {
		fmt.Fprintf(&b, " -seed %d", seed)
	}
	b.WriteString(" -json results -md EXPERIMENTS.md\n```\n\n")
	fmt.Fprintf(&b, "Run parameters: seed %d, quick=%v. Trials execute on the\n", seed, quick)
	b.WriteString("internal/runner worker pool; the numbers are identical for every\n`-parallel` value (see DESIGN.md for the determinism contract).\n\n")

	// No timings here: the document must be byte-identical across
	// machines for a given seed, so a regeneration diff means the
	// science moved. Wall-clock lives in the -json results.
	b.WriteString("## Summary\n\n")
	b.WriteString("| experiment | reproduces | paper's reported behavior |\n")
	b.WriteString("| --- | --- | --- |\n")
	for _, r := range results {
		tab, _ := r.Table.(*exp.Table)
		claim := ""
		if tab != nil {
			claim = tab.PaperClaim()
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n",
			r.Name, describe(r.Name), strings.ReplaceAll(claim, "|", `\|`))
	}
	b.WriteString("\n## Measured results\n\n")
	b.WriteString("Each table below is the measured reproduction; the quoted notes\ncarry the paper's reported values for the same quantity.\n\n")
	for _, r := range results {
		if tab, ok := r.Table.(*exp.Table); ok {
			tab.Markdown(&b)
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func printCatalog() {
	fmt.Println("Experiments (Jain & Dovrolis, IMC 2004):")
	for _, r := range catalog {
		fmt.Printf("  %-12s %s\n", r.name, r.what)
	}
	fmt.Println("\nScenario catalog (the conditions of the matrix experiment):")
	for _, d := range scenario.Catalog() {
		fmt.Printf("  %-16s %s\n", d.Name, d.Summary)
	}
	fmt.Println("\nThe ten misconceptions:")
	for _, m := range core.Misconceptions {
		fmt.Printf("  %2d. [%s] %s (exp: %s)\n", m.ID, m.Kind, m.Title, m.Experiment)
	}
}
