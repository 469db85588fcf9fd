package exp

import (
	"reflect"
	"testing"

	"abw/internal/runner"
	"abw/internal/scenario"
	"abw/internal/tools/registry"
)

// TestMatrixDeterminism is the runner contract applied to the matrix:
// identical results at every worker count, because each (scenario,
// tool) cell derives everything from the config seed and its own
// indices.
func TestMatrixDeterminism(t *testing.T) {
	defer runner.SetWorkers(0)
	cfg := MatrixConfig{Quick: true, Seed: 7}
	runner.SetWorkers(1)
	serial, err := Matrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		runner.SetWorkers(workers)
		parallel, err := Matrix(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("matrix results differ between -parallel 1 and -parallel %d", workers)
		}
	}
}

// TestMatrixGroundTruth checks the matrix against the catalog's known
// conditions: sane estimates on the canonical path, and the
// narrow≠tight flag raised on narrowtight and not on canonical.
func TestMatrixGroundTruth(t *testing.T) {
	res, err := Matrix(MatrixConfig{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	names, tools := scenario.Names(), registry.Names()
	if len(res.Cells) != len(names)*len(tools) {
		t.Fatalf("got %d cells, want %d", len(res.Cells), len(names)*len(tools))
	}
	for _, name := range []string{"canonical", "narrowtight"} {
		if cell, _ := res.Cell(name, "delphi"); cell.Err != nil {
			t.Fatalf("%s/delphi: %v", name, cell.Err)
		}
	}
	canon, _ := res.Cell("canonical", "delphi")
	if got := canon.Report.Point.MbpsOf(); got < 15 || got > 35 {
		t.Errorf("delphi on canonical = %.2f Mbps, want ~25", got)
	}
	for _, sc := range res.Scenarios {
		if sc.Name != "canonical" && sc.Name != "narrowtight" {
			continue
		}
		wantSplit := sc.Name == "narrowtight"
		if (sc.TightLink != sc.NarrowLink) != wantSplit {
			t.Errorf("%s: tight %d narrow %d, split=%v unexpected", sc.Name, sc.TightLink, sc.NarrowLink, wantSplit)
		}
	}
	tab := res.Table()
	if len(tab.Rows) != len(names) || len(tab.Header) != 4+len(tools) {
		t.Errorf("table shape %dx%d, want %d rows x %d cols", len(tab.Rows), len(tab.Header), len(names), 4+len(tools))
	}
}
