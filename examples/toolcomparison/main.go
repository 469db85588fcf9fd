// Toolcomparison: run every registered estimation technique on the same
// path under the same conditions and report estimate + probing cost
// side by side — the "fair comparison under reproducible and
// controllable conditions" the paper's summary calls for. The tool list
// comes from the registry through the abw facade, so a technique added
// there shows up here with no code change.
//
//	go run ./examples/toolcomparison
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"abw"
)

const (
	capacity  = 50 * abw.Mbps
	crossRate = 25 * abw.Mbps // true avail-bw: 25 Mbps
)

// scenario builds a fresh path per tool so each sees statistically
// identical (same seed) cross traffic rather than leftovers of the
// previous tool's probing.
func scenario() abw.Transport {
	sc, err := abw.NewScenario(abw.ScenarioSpec{
		Horizon: 10 * time.Minute,
		Seed:    abw.Seed(7),
		Hops: []abw.Hop{{
			Capacity: capacity,
			Traffic:  []abw.Source{{Kind: abw.Poisson, Rate: crossRate}},
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	return sc.Transport
}

func main() {
	fmt.Println("true avail-bw: 25.0 Mbps (50 Mbps link, 25 Mbps Poisson cross traffic)")
	fmt.Printf("%-10s %-10s %-18s %-9s %-9s %-12s %s\n",
		"tool", "estimate", "range", "streams", "packets", "probe bytes", "latency")
	for _, tool := range abw.Tools() {
		params := abw.Params{
			Capacity: capacity,
			Rand:     abw.NewRand(11),
		}
		rep, err := abw.Estimate(context.Background(), tool.Name, params, scenario())
		if err != nil {
			fmt.Printf("%-10s error: %v\n", tool.Name, err)
			continue
		}
		rng := "-"
		if rep.Low != rep.High {
			rng = fmt.Sprintf("[%.1f, %.1f]", rep.Low.MbpsOf(), rep.High.MbpsOf())
		}
		fmt.Printf("%-10s %-10.2f %-18s %-9d %-9d %-12d %v\n",
			tool.Name, rep.Point.MbpsOf(), rng, rep.Streams, rep.Packets, rep.ProbeBytes,
			rep.Elapsed.Round(time.Millisecond))
	}
	fmt.Println("\nnote: comparisons are only meaningful at matched probing budgets and")
	fmt.Println("timescales (misconceptions #1-#3); this table reports the cost columns")
	fmt.Println("precisely so such a comparison can be made — or pass the same")
	fmt.Println("abw.Budget in Params to enforce parity by construction.")
}
