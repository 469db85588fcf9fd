package exp

import (
	"fmt"

	"abw/internal/core"
	"abw/internal/scenario"
	"abw/internal/tools/registry"
)

// MatrixConfig parameterizes the tools×scenarios matrix: every
// registered estimator against every cataloged scenario.
// This is the experiment the paper's summary asks for — "compare and
// evaluate the existing estimation techniques under reproducible and
// controllable conditions" — with the conditions drawn from the
// scenario catalog instead of a single canonical path.
type MatrixConfig struct {
	// Quick reduces per-tool probing effort for a fast pass.
	Quick bool
	Seed  uint64
}

// MatrixScenarioInfo is one scenario row's ground truth.
type MatrixScenarioInfo struct {
	Name    string
	Summary string
	Hops    int
	// TrueAvailBwMbps is the analytic long-run avail-bw of the tight
	// link.
	TrueAvailBwMbps float64
	// CapacityMbps is the tight-link capacity handed to the tools.
	CapacityMbps float64
	// TightLink and NarrowLink are hop indices; where they differ the
	// scenario exercises the paper's fifth pitfall.
	TightLink, NarrowLink int
}

// MatrixCell is one (scenario, tool) outcome.
type MatrixCell struct {
	Scenario string `json:"scenario"`
	core.Outcome
	Err error `json:"-"`
}

// MatrixResult is the matrix outcome: scenario rows × tool columns.
type MatrixResult struct {
	Config    MatrixConfig
	Tools     []string
	Scenarios []MatrixScenarioInfo
	// Cells is scenario-major, tool-minor.
	Cells []MatrixCell
}

// Cell returns the outcome for a scenario/tool pair.
func (r *MatrixResult) Cell(scenarioName, tool string) (MatrixCell, bool) {
	for _, c := range r.Cells {
		if c.Scenario == scenarioName && c.Tool == tool {
			return c, true
		}
	}
	return MatrixCell{}, false
}

// Matrix runs every registered tool against every cataloged scenario
// at the config seed, one grid column per tool (see runGrid): every
// tool sees statistically identical conditions. The truth column is
// the analytic TrueAvailBw.
func Matrix(c MatrixConfig) (*MatrixResult, error) {
	tools := registry.Names()
	catalog := scenario.Catalog()
	specs := make([]scenario.Spec, len(catalog))
	for i, d := range catalog {
		specs[i] = d.Spec
		specs[i].Seed = scenario.Seed(c.Seed)
	}
	effort := fullEffort
	if c.Quick {
		effort = quickEffort
	}
	cells, err := runGrid(c.Seed, specs, tools, effort)
	if err != nil {
		return nil, fmt.Errorf("exp: matrix: %w", err)
	}
	res := &MatrixResult{Config: c, Tools: tools, Cells: make([]MatrixCell, len(cells))}
	for i, g := range cells {
		d := catalog[i/len(tools)]
		if i%len(tools) == 0 {
			res.Scenarios = append(res.Scenarios, MatrixScenarioInfo{
				Name:            d.Name,
				Summary:         d.Summary,
				Hops:            len(d.Spec.Hops),
				TrueAvailBwMbps: g.TrueAvailBw.MbpsOf(),
				CapacityMbps:    g.Capacity.MbpsOf(),
				TightLink:       g.TightLink,
				NarrowLink:      g.NarrowLink,
			})
		}
		res.Cells[i] = MatrixCell{Scenario: d.Name, Outcome: g.Outcome, Err: g.Err}
	}
	return res, nil
}

// Table renders the matrix: one row per scenario, one estimate column
// per tool, with the ground truth alongside.
func (r *MatrixResult) Table() *Table {
	t := &Table{
		Title:  "Matrix: every registered tool × every cataloged scenario (estimates in Mbps)",
		Header: []string{"scenario", "hops", "true A", "tight=narrow"},
		Notes: []string{
			"paper: which conditions break which estimator — burstiness, multiple bottlenecks, " +
				"responsive cross traffic and avail-bw variability each defeat a different technique",
			"each tool receives the tight-link capacity (the best case for direct probing); " +
				"'x' marks a failed run",
		},
	}
	t.Header = append(t.Header, r.Tools...)
	for _, sc := range r.Scenarios {
		eq := "yes"
		if sc.TightLink != sc.NarrowLink {
			eq = "NO"
		}
		row := []string{sc.Name, fmt.Sprintf("%d", sc.Hops), f2(sc.TrueAvailBwMbps), eq}
		for _, tool := range r.Tools {
			cell, ok := r.Cell(sc.Name, tool)
			switch {
			case !ok || cell.Err != nil:
				row = append(row, "x")
			default:
				row = append(row, f2(cell.Report.Point.MbpsOf()))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
