package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"time"

	"abw/internal/core"
	"abw/internal/probe"
	"abw/internal/rng"
	"abw/internal/scenario"
	"abw/internal/tools/registry"
)

// tracedTransport wraps a transport with a span per Probe call, the
// boundary between a tool's own math and the simulator below it.
type tracedTransport struct {
	inner            core.Transport
	tr               *tracer
	parent, op       int
	streams, packets int
}

func (t *tracedTransport) Now() time.Duration { return t.inner.Now() }

func (t *tracedTransport) Probe(spec probe.StreamSpec) (*probe.Record, error) {
	id := t.tr.begin("probe", t.parent, t.op)
	rec, err := t.inner.Probe(spec)
	t.tr.end(id)
	t.streams++
	t.packets += spec.Count
	return rec, err
}

// runEstimate is a closed loop on one goroutine: for each tool and
// scenario, compile the scenario afresh and run the tool over it. One
// warm-up pass, then timed passes until -seconds has elapsed.
//
// How much probing a tool does depends on the sample path, so one
// seed's pass costs up to 20 % more than another's. Every timed pass
// therefore runs on its own seed derived from -seed, and a run's numbers
// average over about twenty of them. The warm-up pass and the first
// timed pass share a seed: their result digests must be identical, which
// is the determinism check, and that digest is printed so two commits
// can be compared exactly.
func runEstimate(o opts, res *result) error {
	var tools []string
	for _, d := range registry.Tools() {
		if !d.SimOnly {
			tools = append(tools, d.Name)
		}
	}
	if !reflect.DeepEqual(tools, benchTools) {
		return fmt.Errorf("estimate: registry lists tools %v, the benchmark's metric names assume %v", tools, benchTools)
	}
	scenarios := benchScenarios
	if o.short {
		scenarios = []string{"canonical", "verylongpath"}
	}

	type cellStat struct {
		estimateMs, streams []float64
		spans               []int // the tool's estimate spans, for self time
	}
	perTool := map[string]*cellStat{}
	for _, t := range tools {
		perTool[t] = &cellStat{}
	}
	var (
		latencyMs                     []float64
		forwards, vlpForwards         int64
		vlpProbeNs, simNs, estimateNs int64
		compileNs, cellNs, probeNs    int64
		probeStreams, probePackets    int
		digests                       []string
	)

	var passes units
	pass := func(timed bool, passNo int, root int) {
		seed := o.seed
		if passNo > 1 {
			seed = rng.Derive(o.seed, fmt.Sprintf("estimate/pass%d", passNo)).Uint64()
		}
		h := sha256.New()
		ops := 0
		cpu0, start := cpuSeconds(), time.Now()
		for ti, tool := range tools {
			for si, name := range scenarios {
				op := passNo*len(tools)*len(scenarios) + ti*len(scenarios) + si
				d, ok := scenario.Lookup(name)
				if !ok {
					res.fail(1, "unknown scenario %q", name)
					continue
				}
				cell := o.tr.begin("cell."+tool+"."+name, root, op)
				t0 := time.Now()
				cid := o.tr.begin("compile."+name, cell, op)
				cpl, err := d.CompileSeeded(seed)
				o.tr.end(cid)
				t1 := time.Now()
				if err != nil {
					o.tr.end(cell)
					res.attempted++
					res.fail(1, "compile %s: %v", name, err)
					continue
				}
				var transport core.Transport = cpl.Transport
				eid := o.tr.begin("estimate."+tool, cell, op)
				var tt *tracedTransport
				if o.tr != nil {
					tt = &tracedTransport{inner: cpl.Transport, tr: o.tr, parent: eid, op: op}
					transport = tt
				}
				rep, err := registry.Estimate(context.Background(), tool,
					registry.Params{Capacity: cpl.Capacity, Rand: rng.New(seed + 1)}, transport)
				o.tr.end(eid)
				o.tr.end(cell)
				t2 := time.Now()
				if err == nil {
					fmt.Fprintf(h, "%s|%s|%x|%x|%x|%d|%d\n", tool, name, math.Float64bits(float64(rep.Point)),
						math.Float64bits(float64(rep.Low)), math.Float64bits(float64(rep.High)), rep.Streams, rep.Packets)
				}
				if !timed {
					continue
				}
				res.attempted++
				ops++
				latencyMs = append(latencyMs, ms(t2.Sub(t0)))
				switch {
				case err != nil:
					res.fail(1, "%s on %s: %v", tool, name, err)
					continue
				case !finite(float64(rep.Point), float64(rep.Low), float64(rep.High)) ||
					rep.Point < 0 || float64(rep.Point) > 1.5*float64(cpl.Capacity):
					res.fail(1, "%s on %s: estimate %v outside [0, 1.5 x capacity %v]", tool, name, rep.Point, cpl.Capacity)
				}
				var fw int64
				for _, l := range cpl.Path.Links {
					fw += l.Forwarded()
				}
				if cpl.Reverse != nil {
					fw += cpl.Reverse.Forwarded()
				}
				forwards += fw
				simNs += int64(cpl.Sim.Now())
				estimateNs += int64(t2.Sub(t1))
				compileNs += int64(t1.Sub(t0))
				cellNs += int64(t2.Sub(t0))
				st := perTool[tool]
				st.estimateMs = append(st.estimateMs, ms(t2.Sub(t1)))
				st.streams = append(st.streams, float64(rep.Streams))
				if tt != nil {
					st.spans = append(st.spans, eid)
					var pn int64
					for _, s := range o.tr.spans[eid+1:] {
						pn += s.dur()
					}
					probeNs += pn
					probeStreams += tt.streams
					probePackets += tt.packets
					if name == "verylongpath" {
						vlpProbeNs += pn
						vlpForwards += fw
					}
				}
			}
		}
		digests = append(digests, hex.EncodeToString(h.Sum(nil))[:16])
		if timed {
			passes.add(ops, time.Since(start), cpuSeconds()-cpu0)
		}
	}

	// Warm-up: pays lazy initialisation (the embedded weights parse) and
	// lets the heap reach its steady size.
	pass(false, 0, -1)
	root := o.tr.begin("estimate", -1, 0)
	for start := time.Now(); len(passes.rate) == 0 || (!o.short && time.Since(start).Seconds() < o.seconds); {
		pass(true, len(passes.rate)+1, root)
	}
	o.tr.end(root)
	if passes.ops == 0 {
		return fmt.Errorf("estimate: no estimate completed")
	}
	if digests[0] != digests[1] {
		res.fail(1, "two passes on one seed gave result digests %s and %s", digests[0], digests[1])
	}
	res.note("estimate.result_digest %s (identical on the warm-up and the first timed pass; compare across commits at the same -seed)", digests[1])
	res.note("estimate: %d passes of %d tools x %d scenarios, each on its own derived seed", len(passes.rate), len(tools), len(scenarios))

	passes.report(res, "passes")
	res.latency(latencyMs)

	p := float64(len(passes.rate))
	res.layer["sim.forwards"] = float64(forwards) / p
	res.layer["sim.simsec_per_wallsec"] = float64(simNs) / float64(estimateNs)
	res.layer["scenario.compile_share"] = float64(compileNs) / float64(cellNs)
	for _, t := range tools {
		st := perTool[t]
		res.layer["tools."+t+".ms_per_estimate"] = mean(st.estimateMs)
		res.layer["tools."+t+".streams"] = mean(st.streams)
	}
	if o.tr != nil {
		self := selfTimes(o.tr.spans)
		for _, t := range tools {
			var selfMs []float64
			for _, id := range perTool[t].spans {
				selfMs = append(selfMs, float64(self[id])/1e6)
			}
			res.layer["tools."+t+".self_ms"] = mean(selfMs)
		}
		res.layer["probe.streams"] = float64(probeStreams) / p
		res.layer["probe.packets"] = float64(probePackets) / p
		res.layer["probe.stream_ms"] = float64(probeNs) / 1e6 / float64(probeStreams)
		if vlpForwards > 0 {
			res.layer["sim.ns_per_forward"] = float64(vlpProbeNs) / float64(vlpForwards)
		}
	}
	return nil
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
