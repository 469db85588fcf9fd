package main

import (
	"fmt"
	"time"
)

// metric is one row of BENCHMARK.json. The tables below are the single
// source of the names this program prints; -check and the unit tests
// assert that BENCHMARK.json lists exactly these.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Every workload reports every end-to-end metric, so the names are
// generic and README.md says what each one is on each workload:
//
//	throughput  regen experiments/s   estimate estimates/s   live delivered 64 B train pkts/s    fleet runs/s
//	op_p50_ms   regen matrix wall     estimate latency       live paced-stream Probe overhead    fleet cycle of 1000 runs
//
// 25 % is the widest bound the benchmark contract allows. On the 2-vCPU
// VM this was written on, ten runs spread 2-24 % on these three
// (README.md has the numbers); CPU, memory, p95 latency and the scrape
// render spread wider and are per-layer metrics.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},       // median of 25 set-ups: weights parse, compile all 31 catalog scenarios, receiver listen + dial
	{"throughput", "1/s", "higher", 0.25}, // work completed per second, median over the run's units of work
	{"op_p50_ms", "ms", "lower", 0.25},    // the workload's user-visible latency, median
}

// benchTools are the non-SimOnly tools of the registry, in registration
// order; the estimate workload fails if the registry disagrees.
var benchTools = []string{"pathload", "topp", "pathchirp", "ptr", "igi", "delphi", "spruce", "learned"}

// benchScenarios are the estimate workload's four conditions.
var benchScenarios = []string{"canonical", "lrd", "mice", "verylongpath"}

// perLayer lists the metrics of single layers (the repo's packages). A
// metric reads 0 on a workload that does not exercise its layer; the
// first block comes from set-up and the layer probes and is measured in
// every traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		{"setup.first_s", "s", "lower", 0},               // the first, cold set-up of the process: lazy initialisation shows here
		{"learned.weights_load_ms", "ms", "lower", 0},    // parse of the 1.7 MB weights file -> setup_s, exp.learnedeval.wall_s, mem.peak_rss_mb
		{"learned.predict_us", "us", "lower", 0},         // one ridge + k-NN prediction -> tools.learned.self_ms
		{"scenario.compile_all_ms", "ms", "lower", 0},    // compile of the 31 catalog scenarios -> setup_s
		{"livenet.dial_ms", "ms", "lower", 0},            // receiver listen + session dial -> setup_s
		{"eventq.ns_per_op", "ns", "lower", 0},           // schedule + pop at depth 1024 -> throughput@estimate, cpu.us_per_op@regen; none on live
		{"eventq.cancel_ns", "ns", "lower", 0},           // schedule + cancel at depth 1024 -> throughput@estimate (mice: timer cancels)
		{"probe.features_ns", "ns", "lower", 0},          // ExtractFeatures on a recorded 120-packet stream -> op_p50_ms@estimate
		{"ingest.ns_per_pkt.batched", "ns", "lower", 0},  // pre-filled socket drained through ReadBatch, recvmmsg path -> throughput@live; predicted no move on livenet.gap_within_5pct
		{"ingest.ns_per_pkt.fallback", "ns", "lower", 0}, // the same drain through the portable single-read path
		{"ingest.pkts_per_batch", "count", "higher", 0},  // datagrams per ReadBatch call on the batched path
		{"ingest.kernel_ts", "count", "higher", 0},       // 1 when arrival stamps are kernel RX timestamps
		{"ingest.rcvbuf_bytes", "bytes", "higher", 0},    // receive buffer the kernel granted for a 4 MiB request
		{"monitor.admit_commit_ns", "ns", "lower", 0},    // Ledger.Admit + Commit -> throughput@fleet; none on estimate
		{"monitor.store_append_ns", "ns", "lower", 0},    // Store.Append into a full 64-point ring -> throughput@fleet
		{"monitor.rollup_us", "us", "lower", 0},          // Series.Rollup over 64 points -> monitor.scrape_p50_ms
		{"cpu.us_per_op", "us", "lower", 0},              // CPU (rusage user+sys) per unit of throughput, median over units: separates less work from more cores
		{"mem.peak_rss_mb", "MB", "lower", 0},            // VmHWM of the workload process; spreads 20 % on regen, where two workers race the collector
		{"latency.p95_ms", "ms", "lower", 0},             // op_p50_ms's latency at the 95th percentile; moves 2x between fleet runs, so it carries no bound
		{"latency.samples", "count", "higher", 0},        // samples behind op_p50_ms and latency.p95_ms
		{"trace.spans", "count", "lower", 0},             // spans recorded by this run
		{"trace.overhead_pct", "%", "lower", 0},          // spans x measured cost of one span, as a share of the timed section
		{"trace.throughput", "1/s", "higher", 0},         // the traced run's own throughput; against an untraced run's it gives the tracing overhead as a difference

		{"regen.wall_s", "s", "lower", 0},                  // one pass over the 15 experiments
		{"regen.cpu_s", "s", "lower", 0},                   // rusage user+sys of that pass
		{"regen.sections_identical", "count", "higher", 0}, // sections byte-identical to EXPERIMENTS.md (15 of 15)
		{"matrix.rel_err_p50", "ratio", "lower", 0},        // |estimate - analytic truth| / truth over the 248 matrix cells; repeats exactly
		{"matrix.rel_err_p90", "ratio", "lower", 0},        // the same at the 90th percentile
		{"exp.span_sum_s", "s", "lower", 0},                // sum of the experiment spans; must equal regen.wall_s within 10 %
		{"runner.parallel_eff", "ratio", "higher", 0},      // regen.cpu_s / (2 x regen.wall_s): is a regen win work or scheduling
	}
	for _, e := range experiments {
		ms = append(ms, metric{"exp." + e.name + ".wall_s", "s", "lower", 0}) // -> throughput@regen
	}
	ms = append(ms,
		metric{"sim.forwards", "count", "lower", 0},            // sum of Link.Forwarded() over one pass, exact -> latency.p95_ms@estimate
		metric{"sim.ns_per_forward", "ns", "lower", 0},         // probe-span time / link forwards on verylongpath
		metric{"sim.simsec_per_wallsec", "ratio", "higher", 0}, // simulated seconds per second inside Estimate
		metric{"scenario.compile_share", "ratio", "lower", 0},  // compile spans / cell spans -> throughput@estimate (only lrd is material)
		metric{"probe.stream_ms", "ms", "lower", 0},            // mean span around Transport.Probe -> op_p50_ms@estimate
		metric{"probe.streams", "count", "lower", 0},           // Probe calls in one pass
		metric{"probe.packets", "count", "lower", 0},           // probe packets in one pass
	)
	for _, s := range benchScenarios {
		ms = append(ms, metric{"scenario.compile_ms." + s, "ms", "lower", 0}) // CompileSeeded during set-up -> throughput@estimate; ~0 on fleet
	}
	for _, t := range benchTools {
		ms = append(ms,
			metric{"tools." + t + ".ms_per_estimate", "ms", "lower", 0}, // mean Estimate span -> throughput@estimate
			metric{"tools." + t + ".self_ms", "ms", "lower", 0},         // Estimate span minus its Probe spans: the tool's own math
			metric{"tools." + t + ".streams", "count", "lower", 0},      // mean streams per estimate
		)
	}
	ms = append(ms,
		metric{"livenet.gap_within_5pct", "ratio", "higher", 0},     // share of 200 us receive gaps within 5 % of their recorded send gap: what the ingest-path decision turns on
		metric{"livenet.gap_within_5pct_1ms", "ratio", "higher", 0}, // the same for 1 ms gaps (sleep + spin pacing)
		metric{"livenet.gap_err_p50_us", "us", "lower", 0},          // |receive gap - send gap|, 200 us class
		metric{"livenet.gap_err_p90_us", "us", "lower", 0},
		metric{"livenet.gap_err_p99_us", "us", "lower", 0},
		metric{"livenet.gap_err_mean_us", "us", "lower", 0},
		metric{"livenet.send_gap_err_p90_us", "us", "lower", 0},     // sender pacing vs intended 200 us gap = generator lateness
		metric{"livenet.invalid_streams", "count", "lower", 0},      // 200 us streams whose own sender pacing error p90 exceeded 10 us: excluded from the gap numbers
		metric{"livenet.send_gap_err_p90_us_1ms", "us", "lower", 0}, // the same for the 1 ms gap: time.Sleep quantisation in the sender
		metric{"livenet.pkts_per_s_1472B", "pkts/s", "higher", 0},   // delivered packets per second on the 1472 B trains
		metric{"livenet.drops", "count", "lower", 0},                // datagrams the receiver discarded
		metric{"livenet.lost", "count", "lower", 0},                 // probe packets sent and never stamped
		metric{"livenet.batches", "count", "lower", 0},              // ingest batches the receiver drained

		metric{"monitor.scrape_p50_ms", "ms", "lower", 0},     // median /metrics + /api/series render; spread 27 % over ten runs, so it carries no bound
		metric{"monitor.metrics_render_ms", "ms", "lower", 0}, // median /metrics render -> monitor.scrape_p50_ms
		metric{"monitor.series_render_ms", "ms", "lower", 0},  // median /api/series render -> monitor.scrape_p50_ms
		metric{"monitor.snapshot_ms", "ms", "lower", 0},       // one WriteSnapshot of 1000 x 64 points
		metric{"monitor.cycles", "count", "higher", 0},        // timed cycles of 1000 runs
		metric{"monitor.overruns", "count", "lower", 0},
		metric{"monitor.recompiles", "count", "lower", 0}, // sim targets rebuilt after horizon exhaustion (rare: compile is ~0 on fleet)
		metric{"monitor.nudges", "count", "lower", 0},     // extra fake seconds advanced to get past the scheduler's re-arm race
	)
	return ms
}

// result is what one workload run produced.
type result struct {
	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
	info              []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts n failed operations with the reason.
func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// latency fills the latency metrics from per-op samples in ms.
func (r *result) latency(ms []float64) {
	r.e2e["op_p50_ms"] = percentile(ms, 0.50)
	r.layer["latency.p95_ms"] = percentile(ms, 0.95)
	r.layer["latency.samples"] = float64(len(ms))
	r.note("latency: p50 %.4g ms, p95 %.4g ms over %d samples", r.e2e["op_p50_ms"], r.layer["latency.p95_ms"], len(ms))
}

// units collects one sample per unit of work (a pass, a train, a
// cycle): the operations it completed, its wall time and the CPU the
// process used meanwhile. The run reports medians over its units, so
// one slow unit (a GC pause, a descheduled moment on a shared box) does
// not move the run's number.
type units struct {
	ops         int
	rate, cpuUs []float64
}

func (u *units) add(ops int, wall time.Duration, cpuSec float64) {
	if ops == 0 || wall <= 0 {
		return
	}
	u.ops += ops
	u.rate = append(u.rate, float64(ops)/wall.Seconds())
	u.cpuUs = append(u.cpuUs, cpuSec/float64(ops)*1e6)
}

func (u *units) report(r *result, what string) {
	r.e2e["throughput"] = median(u.rate)
	r.layer["cpu.us_per_op"] = median(u.cpuUs)
	r.note("throughput: median over %d %s, %d operations", len(u.rate), what, u.ops)
}
