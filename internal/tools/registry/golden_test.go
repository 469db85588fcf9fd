package registry_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"abw/internal/rng"
	"abw/internal/scenario"
	"abw/internal/tools/registry"
)

var update = flag.Bool("update", false, "rewrite testdata/estimates.golden from the current estimators")

// TestEstimatesGolden pins every tool's numbers on four
// scenarios that between them cover smooth, long-range-dependent,
// TCP-driven and many-hop cross traffic. A change that moves any
// estimate, or the probing it took to reach it, shows up here in
// seconds instead of in the full EXPERIMENTS.md regeneration. After an
// intended change: go test ./internal/tools/registry -run Golden -update
func TestEstimatesGolden(t *testing.T) {
	const path = "testdata/estimates.golden"
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	// One goroutine per cell: each compiles its own simulator, so the
	// cells are independent and the test takes the slowest core's share.
	type cell struct{ tool, scen, line string }
	var cells []cell
	for _, d := range registry.Tools() {
		for _, name := range []string{"canonical", "lrd", "mice", "verylongpath"} {
			cells = append(cells, cell{tool: d.Name, scen: name})
		}
	}
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func(c *cell) {
			defer wg.Done()
			sc, ok := scenario.Lookup(c.scen)
			if !ok {
				t.Errorf("unknown scenario %q", c.scen)
				return
			}
			cpl, err := sc.CompileSeeded(1)
			if err != nil {
				t.Errorf("compile %s: %v", c.scen, err)
				return
			}
			rep, err := registry.Estimate(context.Background(), c.tool,
				registry.Params{Capacity: cpl.Capacity, Rand: rng.New(2)}, cpl.Transport)
			if err != nil {
				t.Errorf("%s on %s: %v", c.tool, c.scen, err)
				return
			}
			c.line = fmt.Sprintf("%s %s %s %s %s %d %d\n", c.tool, c.scen,
				g(float64(rep.Point)), g(float64(rep.Low)), g(float64(rep.High)), rep.Streams, rep.Packets)
		}(&cells[i])
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var b strings.Builder
	b.WriteString("# tool scenario point_bps low_bps high_bps streams packets\n")
	for _, c := range cells {
		b.WriteString(c.line)
	}
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d (rerun with -update if the tool or scenario set changed on purpose)", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
		}
	}
}
