// Command bench is the repository's benchmark: four workloads over the
// simulator, the live UDP path and the monitor, each printing the
// end-to-end metrics of BENCHMARK.json and, in a traced run, the
// per-layer metrics. See README.md.
//
//	bash bench/run.sh -workload estimate -seed 1             # untraced: end-to-end metrics
//	bash bench/run.sh -workload estimate -seed 1 -trace 1    # traced: per-layer metrics + span file
//	bash bench/run.sh -workload fleet -repeat 10             # noise floor: median, quartiles, relative IQR
//	bash bench/run.sh -check                                 # every output check on short passes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"time"
)

// benchName is what the benchmark contract allows as a metric name.
var benchName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

var workloads = map[string]func(opts, *result) error{
	"regen":    runRegen,
	"estimate": runEstimate,
	"live":     runLive,
	"fleet":    runFleet,
}

// opts is what a workload needs to run.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	short    bool    // -check: one short pass, reduced sizes
	tr       *tracer // nil = untraced
	root     string  // repository root
	out      string  // directory for the span file and the fleet snapshot
}

func main() {
	// nproc is 2 on the box the bounds were measured on; the pin keeps
	// numbers comparable on bigger hosts.
	runtime.GOMAXPROCS(2)
	var (
		workload = flag.String("workload", "", "regen | estimate | live | fleet")
		seed     = flag.Uint64("seed", 1, "seed the inputs are made from")
		seconds  = flag.Float64("seconds", 20, "how long to measure: each workload repeats its unit of work until this has elapsed")
		trace    = flag.Int("trace", 0, "1 = traced run: spans around every layer call, per-layer metrics")
		out      = flag.String("out", "", "directory for trace-<workload>.json and the fleet snapshot (default .bench_build/out)")
		repeat   = flag.Int("repeat", 0, "run the workload this many times in fresh processes (seeds seed, seed+1, ...) and print the spread")
		check    = flag.Bool("check", false, "run every output check on one short pass per workload and compare metric names with BENCHMARK.json")
	)
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		*out = filepath.Join(root, ".bench_build", "out")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	o := opts{workload: *workload, seed: *seed, seconds: *seconds, root: root, out: *out}
	if *check {
		if err := runCheck(o); err != nil {
			fatal(err)
		}
		return
	}
	if workloads[o.workload] == nil {
		fatal(fmt.Errorf("pick -workload regen | estimate | live | fleet (or -check)"))
	}
	if *repeat > 0 {
		if err := runRepeat(o, *repeat, *trace == 1); err != nil {
			fatal(err)
		}
		return
	}
	if *trace == 1 {
		o.tr = newTracer()
	}
	res, err := runOne(o)
	if err != nil {
		fatal(err)
	}
	printResult(o, res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// findRoot walks up from the working directory to the repository root:
// the directory holding BENCHMARK.json beside the committed results.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if exists(filepath.Join(dir, "BENCHMARK.json")) && exists(filepath.Join(dir, "EXPERIMENTS.md")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository root (BENCHMARK.json beside EXPERIMENTS.md) above the working directory")
		}
		dir = parent
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// runOne is one measured run of one workload: set-up, the layer probes
// when traced, then the workload.
func runOne(o opts) (*result, error) {
	res := newResult()
	if err := runSetup(o, res); err != nil {
		return nil, err
	}
	first := 0
	if o.tr != nil {
		if err := layerProbes(o, res); err != nil {
			return nil, err
		}
		first = len(o.tr.spans)
	}
	start := time.Now()
	if err := workloads[o.workload](o, res); err != nil {
		return nil, err
	}
	timed := time.Since(start)
	res.layer["mem.peak_rss_mb"] = peakRSSMB()
	if o.tr != nil {
		n := len(o.tr.spans) - first
		res.layer["trace.spans"] = float64(n)
		res.layer["trace.throughput"] = res.e2e["throughput"]
		res.layer["trace.overhead_pct"] = float64(n) * spanCostNs() / float64(timed) * 100
		if !o.short {
			path, err := o.tr.write(o.out, o.workload, o.seed)
			if err != nil {
				return nil, err
			}
			res.note("spans written to %s", path)
		}
	}
	return res, nil
}

// runLine is the JSON line a run ends with: what the driver reads, and
// what -repeat reads back from its child processes.
type runLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric by name with its unit, then the one
// JSON line the driver reads: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one.
func printResult(o opts, res *result) {
	fmt.Printf("workload %s, seed %d, %.0f s, GOMAXPROCS %d, traced %v\n", o.workload, o.seed, o.seconds, runtime.GOMAXPROCS(0), o.tr != nil)
	for _, line := range res.info {
		fmt.Println(" ", line)
	}
	for _, p := range res.problems {
		fmt.Println("  FAILED:", p)
	}
	printTable := func(defs []metric, vals map[string]float64) {
		for _, m := range defs {
			if v, ok := vals[m.Name]; ok {
				fmt.Printf("  %-34s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
	}
	printTable(endToEnd, res.e2e)
	defs, vals := endToEnd, res.e2e
	if o.tr != nil {
		fmt.Println("  (end-to-end numbers above are from a traced run; quote them from an untraced one)")
		printTable(perLayer, res.layer)
		defs, vals = perLayer, res.layer
	}
	metrics := map[string]metricValue{}
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok && o.tr == nil {
			fatal(fmt.Errorf("workload %s did not produce end-to-end metric %s", o.workload, m.Name))
		}
		// A per-layer metric the workload does not exercise reads 0.
		metrics[m.Name] = metricValue{v, m.Unit}
	}
	line, err := json.Marshal(runLine{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
