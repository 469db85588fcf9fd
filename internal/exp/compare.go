package exp

import (
	"fmt"
	"time"

	"abw/internal/core"
	"abw/internal/scenario"
	"abw/internal/tools/registry"
	"abw/internal/unit"
)

// CompareConfig parameterizes the cross-tool comparison the paper's
// summary calls for: "compare and evaluate the existing estimation
// techniques under reproducible and controllable conditions".
type CompareConfig struct {
	Seed uint64
}

// CompareEntry is one tool's outcome on the common scenario. The
// embedded core.Outcome carries the JSON shape (report, error text);
// Err keeps the live error for programmatic use.
type CompareEntry struct {
	core.Outcome
	Err error `json:"-"`
}

// CompareResult is the comparison outcome.
type CompareResult struct {
	Config      CompareConfig
	TrueAvailBw unit.Rate
	Entries     []CompareEntry
	model       CrossModel
}

// CompareTools runs every estimator in the registry against
// statistically identical copies of the paper's single hop under
// Poisson cross traffic (same seed, fresh simulation per tool so no
// tool inherits another's queue backlog), recording estimate and
// probing cost. This is the repository's broadest integration test:
// every estimation technique, the transport and the simulator all
// exercised through the public construction path.
func CompareTools(c CompareConfig) (*CompareResult, error) {
	return compareTools(c, ModelPoisson)
}

// compareTools is CompareTools under the given cross model: one grid
// row, every tool at its published effort.
func compareTools(c CompareConfig, model CrossModel) (*CompareResult, error) {
	spec := scenario.Spec{
		Horizon: 10 * time.Minute,
		Seed:    scenario.Seed(c.Seed),
		Hops:    paperHop(crossSource(model, paperCrossRate)),
	}
	cells, err := runGrid(c.Seed, []scenario.Spec{spec}, registry.Names(), fullEffort)
	if err != nil {
		return nil, fmt.Errorf("exp: compare: %w", err)
	}
	res := &CompareResult{Config: c, TrueAvailBw: paperCapacity - paperCrossRate, model: model,
		Entries: make([]CompareEntry, len(cells))}
	for i, g := range cells {
		res.Entries[i] = CompareEntry{Outcome: g.Outcome, Err: g.Err}
	}
	return res, nil
}

// Entry returns the named tool's entry.
func (r *CompareResult) Entry(tool string) (CompareEntry, bool) {
	for _, e := range r.Entries {
		if e.Tool == tool {
			return e, true
		}
	}
	return CompareEntry{}, false
}

// Table renders the comparison with the cost columns that make it fair.
func (r *CompareResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Tool comparison under %s cross traffic (true A = %.1f Mbps)",
			r.model, r.TrueAvailBw.MbpsOf()),
		Header: []string{"tool", "estimate", "low", "high", "streams", "packets", "latency"},
		Notes: []string{
			"comparisons are only fair at matched probing budgets and timescales (misconceptions 1-3)",
		},
	}
	for _, e := range r.Entries {
		if e.Err != nil {
			t.Rows = append(t.Rows, []string{e.Tool, "error", e.Err.Error(), "", "", "", ""})
			continue
		}
		rep := e.Report
		t.Rows = append(t.Rows, []string{
			e.Tool, f2(rep.Point.MbpsOf()), f2(rep.Low.MbpsOf()), f2(rep.High.MbpsOf()),
			fmt.Sprintf("%d", rep.Streams), fmt.Sprintf("%d", rep.Packets),
			rep.Elapsed.Round(time.Millisecond).String(),
		})
	}
	return t
}
