package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadManifest(root string) (manifest, error) {
	var mf manifest
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return mf, err
	}
	return mf, json.Unmarshal(b, &mf)
}

// compareManifest reports every way BENCHMARK.json and this program's
// metric tables disagree.
func compareManifest(mf manifest) []string {
	var diffs []string
	if !reflect.DeepEqual(mf.EndToEnd, endToEnd) {
		diffs = append(diffs, "end_to_end differs from the endToEnd table in metrics.go")
	}
	if !reflect.DeepEqual(mf.PerLayer, perLayer) {
		diffs = append(diffs, "per_layer differs from the perLayer table in metrics.go")
	}
	var names []string
	for _, w := range mf.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			diffs = append(diffs, fmt.Sprintf("workload %q is not implemented", w.Name))
		}
	}
	if len(names) != len(workloads) {
		diffs = append(diffs, fmt.Sprintf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads)))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !benchName.MatchString(m.Name) {
			diffs = append(diffs, fmt.Sprintf("metric name %q is not [A-Za-z0-9_.-]{1,64}", m.Name))
		}
		if seen[m.Name] {
			diffs = append(diffs, fmt.Sprintf("metric name %q is used twice", m.Name))
		}
		seen[m.Name] = true
	}
	return diffs
}

// runCheck runs one short traced pass of every workload, applies every
// output check, and asserts that the names each pass produced are the
// names BENCHMARK.json lists.
func runCheck(o opts) error {
	start := time.Now()
	mf, err := loadManifest(o.root)
	if err != nil {
		return err
	}
	problems := compareManifest(mf)
	produced, known := map[string]bool{}, map[string]bool{}
	for _, m := range perLayer {
		known[m.Name] = true
	}
	for _, w := range mf.Workloads {
		if workloads[w.Name] == nil {
			continue
		}
		t0 := time.Now()
		wo := o
		wo.workload, wo.short, wo.tr = w.Name, true, newTracer()
		res, err := runOne(wo)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", w.Name, err))
			continue
		}
		for _, p := range res.problems {
			problems = append(problems, w.Name+": "+p)
		}
		for _, m := range endToEnd {
			if v, ok := res.e2e[m.Name]; !ok || v == 0 {
				problems = append(problems, fmt.Sprintf("%s: end-to-end metric %s missing or zero", w.Name, m.Name))
			}
		}
		for _, name := range sortedKeys(res.layer) {
			produced[name] = true
			if !known[name] {
				problems = append(problems, fmt.Sprintf("%s: prints per-layer metric %s that BENCHMARK.json does not list", w.Name, name))
			}
		}
		fmt.Printf("check %-8s %d operations, %d failed, %.1f s\n", w.Name, res.attempted, res.failed, time.Since(t0).Seconds())
	}
	var never []string
	for _, m := range perLayer {
		if !produced[m.Name] {
			never = append(never, m.Name)
		}
	}
	sort.Strings(never)
	if len(never) > 0 {
		problems = append(problems, fmt.Sprintf("per-layer metrics no workload produced: %v", never))
	}
	for _, p := range problems {
		fmt.Println("FAILED:", p)
	}
	fmt.Printf("check: %d end-to-end and %d per-layer metric names, %d workloads, %.1f s\n",
		len(endToEnd), len(perLayer), len(mf.Workloads), time.Since(start).Seconds())
	if len(problems) > 0 {
		return fmt.Errorf("%d check(s) failed", len(problems))
	}
	return nil
}
