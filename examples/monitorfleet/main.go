// Monitorfleet: the monitoring service as a library — a fleet of
// simulated targets measured continuously under a fake clock, so an
// hour of periodic estimation runs in milliseconds and the output is
// deterministic. This is the paper's first pitfall operationalized:
// avail-bw is a bursty process, so one probe is a sample, not an
// answer; the monitor's per-series rollups report min/mean/max and the
// union of variation ranges across a window of runs. A fleet-wide
// probing budget (the intrusiveness pitfall, solved per fleet rather
// than per tool) refuses runs once the byte ledger is spent.
//
//	go run ./examples/monitorfleet
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"abw"
)

func main() {
	// EstBytes is the admission hint: what a run is expected to cost
	// before its first actuals are known. Without it, admission has to
	// project from worst-case tool defaults, which can price a cheap
	// tool out of a tight budget before it ever gets to prove itself.
	targets := []abw.MonitorTarget{
		{Name: "edge-a", Tenant: "acme", Tool: "spruce", Scenario: "canonical", Params: abw.Params{Repeat: 8}, EstBytes: 25_000},
		{Name: "edge-b", Tenant: "acme", Tool: "delphi", Scenario: "bursty", Params: abw.Params{Repeat: 2, StreamLen: 5}, EstBytes: 16_000},
		{Name: "core-1", Tenant: "globex", Tool: "pathload", Scenario: "step", Params: abw.Params{Repeat: 2, StreamLen: 20, MaxRounds: 6}, EstBytes: 330_000},
	}

	// A fake clock makes the monitor a pure function of (config, seed,
	// advance script): time moves only when we say so.
	clk := abw.NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	m, err := abw.NewMonitor(abw.MonitorConfig{
		Targets:  targets,
		Interval: 10 * time.Second,
		Seed:     42,
		Clock:    clk,
		// Enough budget for roughly four cycles of the whole fleet:
		// after that, admission refuses runs with ErrBudget and the
		// refusals land in the series as error points.
		Budget: abw.Budget{MaxBytes: 1_500_000},
	})
	if err != nil {
		log.Fatal(err)
	}
	m.Start()
	defer m.Close()

	// Simulate one minute of monitoring: advance, then wait for the
	// cycle's runs to drain before advancing again.
	const cycles = 6
	for i := 1; i <= cycles; i++ {
		clk.Advance(11 * time.Second)
		for {
			st := m.Stats()
			if st.Points >= uint64(len(targets)*i) && st.Active == 0 && st.Scheduled == len(targets) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	fmt.Printf("after %d cycles:\n\n", cycles)
	fmt.Printf("%-8s %-9s %-7s %9s %9s %9s %13s %5s\n",
		"target", "tool", "tenant", "min", "mean", "max", "variation", "runs")
	// The store lists series in the order their first runs finished,
	// which the run goroutines decide; sort so the table is the same
	// every time.
	series := m.Store().All()
	sort.Slice(series, func(i, j int) bool { return series[i].Target < series[j].Target })
	for _, s := range series {
		r := s.Rollup()
		fmt.Printf("%-8s %-9s %-7s %9.2f %9.2f %9.2f %6.2f–%-6.2f %2d+%de\n",
			s.Target, s.Tool, s.Tenant,
			r.Min.MbpsOf(), r.Mean.MbpsOf(), r.Max.MbpsOf(),
			r.VarLow.MbpsOf(), r.VarHigh.MbpsOf(), r.Count, r.Errors)
	}

	led := m.Ledger().Stats()
	fmt.Printf("\nfleet ledger: %d admitted, %d refused; %d probe bytes charged of %d budget\n",
		led.Admitted, led.Refused, led.Bytes, 1_500_000)
	for _, ten := range led.Tenants {
		fmt.Printf("  tenant %-7s %d admitted, %d refused, %d bytes\n",
			ten.Tenant, ten.Admitted, ten.Refused, ten.Bytes)
	}
	fmt.Println("\nthe same series are served over HTTP by cmd/abwmonitor (/api/series, /metrics)")
}
