package exp

import (
	"fmt"
	"math"
	"slices"
	"time"

	"abw/internal/fluid"
	"abw/internal/probe"
	"abw/internal/runner"
	"abw/internal/scenario"
	"abw/internal/unit"
)

// Table 1's grid: the paper's cross-traffic packet sizes Lc, and the
// number k of pair samples averaged.
var (
	table1CrossSizes = []unit.Bytes{40, 512, 1500}
	table1Ks         = []int{10, 20, 50, 100}
)

// Table1Config parameterizes the packet-pair vs packet-train experiment:
// 1500 B pairs at Ri = 40 Mbps over the paper's single hop.
type Table1Config struct {
	Trials int // sample means per (Lc, k) cell, default 25
	Seed   uint64
}

// Table1Cell is the mean absolute relative error for one (Lc, k) pair.
type Table1Cell struct {
	CrossSize unit.Bytes
	K         int
	AbsError  float64
}

// Table1Result is the experiment outcome.
type Table1Result struct {
	Config Table1Config
	Cells  []Table1Cell
}

// Cell returns the error for a given cross size and sample count.
func (r *Table1Result) Cell(lc unit.Bytes, k int) (float64, bool) {
	for _, c := range r.Cells {
		if c.CrossSize == lc && c.K == k {
			return c.AbsError, true
		}
	}
	return 0, false
}

// Table1 regenerates the paper's Table 1: the effect of the cross
// traffic packet size Lc on packet-pair estimation error. At equal mean
// rate, fewer/larger cross packets quantize the per-pair samples more
// coarsely, so the k-pair sample mean is noisier. The paper reports 0%
// error at Lc=40 B and up to 40% at Lc=1500 B with k=10.
func Table1(c Table1Config) (*Table1Result, error) {
	if c.Trials == 0 {
		c.Trials = 25
	}
	res := &Table1Result{Config: c}
	trueA := (paperCapacity - paperCrossRate).MbpsOf()
	maxK := slices.Max(table1Ks)
	// One long-lived scenario per cross size: all trials sample it, so
	// the trials of one cross size are inherently serial — the runner
	// job is the whole cross-size column, seeded by its index.
	cells, err := runner.All(len(table1CrossSizes), func(li int) ([]Table1Cell, error) {
		lc := table1CrossSizes[li]
		// Pairs are spaced 5 ms apart; a trial of maxK pairs spans
		// maxK*5ms.
		horizon := time.Duration(c.Trials+2) * time.Duration(maxK+5) * 5 * time.Millisecond * 2
		cpl, err := scenario.Compile(scenario.Spec{
			Horizon: horizon,
			Seed:    scenario.Seed(c.Seed + uint64(li)*1000),
			Hops:    paperHop(scenario.Source{Kind: scenario.Poisson, Rate: paperCrossRate, PktSize: lc, SplitLabel: "cross"}),
		})
		if err != nil {
			return nil, fmt.Errorf("exp: table1: %w", err)
		}
		tp := cpl.Transport
		tp.Spacing = 5 * time.Millisecond
		// Collect Trials × maxK pair samples, then form sample means for
		// each k from disjoint consecutive blocks.
		errSums := make(map[int]float64)
		errCounts := make(map[int]int)
		for trial := 0; trial < c.Trials; trial++ {
			samples := make([]float64, 0, maxK)
			for len(samples) < maxK {
				rec, err := tp.Probe(probe.Pair(directRate, paperPktSize))
				if err != nil {
					return nil, fmt.Errorf("exp: table1: %w", err)
				}
				ri, ro := rec.PairInputRate(0), rec.PairOutputRate(0)
				if ri <= 0 || ro <= 0 {
					continue
				}
				a, err := fluid.DirectEstimate(paperCapacity, ri, ro)
				if err != nil {
					continue
				}
				v := a.MbpsOf()
				if v < 0 {
					v = 0
				}
				if v > paperCapacity.MbpsOf() {
					v = paperCapacity.MbpsOf()
				}
				samples = append(samples, v)
			}
			for _, k := range table1Ks {
				var mean float64
				for _, v := range samples[:k] {
					mean += v
				}
				mean /= float64(k)
				errSums[k] += math.Abs(mean-trueA) / trueA
				errCounts[k]++
			}
		}
		col := make([]Table1Cell, 0, len(table1Ks))
		for _, k := range table1Ks {
			col = append(col, Table1Cell{
				CrossSize: lc,
				K:         k,
				AbsError:  errSums[k] / float64(errCounts[k]),
			})
		}
		return col, nil
	})
	if err != nil {
		return nil, err
	}
	for _, col := range cells {
		res.Cells = append(res.Cells, col...)
	}
	return res, nil
}

// Table renders the result in the paper's Table 1 layout.
func (r *Table1Result) Table() *Table {
	t := &Table{
		Title:  "Table 1: effect of cross-traffic packet size Lc on packet-pair error",
		Header: []string{"Lc"},
		Notes: []string{
			"paper: Lc=40B -> ~0 for all k; Lc=512B -> 31/8/5/2.5%; Lc=1500B -> 40/20/8/2%",
		},
	}
	for _, k := range table1Ks {
		t.Header = append(t.Header, fmt.Sprintf("k=%d", k))
	}
	for _, lc := range table1CrossSizes {
		row := []string{fmt.Sprintf("%dB", lc)}
		for _, k := range table1Ks {
			if e, ok := r.Cell(lc, k); ok {
				row = append(row, pct(e))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
