package registry_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"abw/internal/core"
	"abw/internal/probe"
	"abw/internal/rng"
	"abw/internal/scenario"
	"abw/internal/tools/registry"
	"abw/internal/tools/toolstest"
	"abw/internal/unit"
)

// params returns a Params set every registered tool can be built from
// on the canonical toolstest scenario, sized down so the whole catalog
// runs in seconds.
func params(sc *toolstest.Scenario) registry.Params {
	return registry.Params{
		Capacity:  sc.Capacity,
		Rand:      rng.New(7),
		StreamLen: 20,
		Repeat:    3,
		MaxRounds: 6,
	}
}

// TestRoundTripAllTools constructs every registered tool from the
// uniform Params and runs it end to end against a toolstest scenario:
// the registry's reason to exist is that this loop needs no per-tool
// code.
func TestRoundTripAllTools(t *testing.T) {
	tools := registry.Tools()
	if len(tools) < 8 {
		t.Fatalf("registry has %d tools, want at least 8", len(tools))
	}
	for _, d := range tools {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			sc := toolstest.New(toolstest.Options{Model: toolstest.CBR})
			rep, err := registry.Estimate(context.Background(), d.Name, params(sc), sc.Transport)
			if err != nil {
				t.Fatalf("%s: %v", d.Name, err)
			}
			if rep.Tool != d.Name {
				t.Errorf("report names %q, want %q", rep.Tool, d.Name)
			}
			if !rep.Point.IsValid() || rep.Point > 2*sc.Capacity {
				t.Errorf("%s: implausible estimate %v on a %v link", d.Name, rep.Point, sc.Capacity)
			}
			if rep.Packets <= 0 || rep.ProbeBytes <= 0 {
				t.Errorf("%s: probing effort not accounted: %+v", d.Name, rep)
			}
		})
	}
}

// TestAliasesAndLookup covers name resolution: canonical names,
// aliases, and the unknown-tool error listing the catalog.
func TestAliasesAndLookup(t *testing.T) {
	if _, ok := registry.Lookup("pathchirp"); !ok {
		t.Error("pathchirp not registered")
	}
	d, ok := registry.Lookup("chirp")
	if !ok || d.Name != "pathchirp" {
		t.Errorf("alias chirp resolved to %q, %v", d.Name, ok)
	}
	if _, ok := registry.Lookup("nosuch"); ok {
		t.Error("phantom tool found")
	}
	if _, err := registry.Estimate(context.Background(), "nosuch", registry.Params{}, nil); err == nil {
		t.Error("Estimate(nosuch) should fail")
	}
}

// TestMissingParams checks that requirement validation is descriptor-
// driven: direct-probing tools without a capacity, spruce without a
// random source, bracket tools with nothing to derive a bracket from.
func TestMissingParams(t *testing.T) {
	cases := []struct {
		tool string
		p    registry.Params
	}{
		{"spruce", registry.Params{Capacity: 50 * unit.Mbps}}, // no Rand
		{"delphi", registry.Params{RateLo: 1, RateHi: 2}},     // no Capacity
		{"igi", registry.Params{}},                            // no Capacity
		{"pathload", registry.Params{}},                       // no bracket, no Capacity
		{"topp", registry.Params{RateLo: 10 * unit.Mbps}},     // half a bracket
		{"ptr", registry.Params{}},                            // nothing to derive InitRate from
	}
	for _, c := range cases {
		if _, err := registry.Estimate(context.Background(), c.tool, c.p, nil); err == nil {
			t.Errorf("%s: Estimate succeeded with missing requirements %+v", c.tool, c.p)
		}
		// The descriptor must predict the failure: MissingParams is
		// what CLIs derive their requirement errors from, so any
		// Params that fail Estimate for a missing input must be flagged
		// here too, before a socket is ever dialed.
		d, ok := registry.Lookup(c.tool)
		if !ok {
			t.Fatalf("%s not registered", c.tool)
		}
		if missing := d.MissingParams(c.p); len(missing) == 0 {
			t.Errorf("%s: MissingParams(%+v) = none, but Estimate fails", c.tool, c.p)
		}
	}
	// The CLI-facing requirement list must name the missing field.
	d, _ := registry.Lookup("spruce")
	missing := d.MissingParams(registry.Params{})
	found := false
	for _, m := range missing {
		if m == "Capacity" {
			found = true
		}
	}
	if !found {
		t.Errorf("spruce MissingParams = %v, want Capacity listed", missing)
	}
}

// TestEstimateRefusesNonFiniteRates: a rate that is set must be finite
// and positive. NaN passes every `<= 0` check, and before this guard it
// reached the simulator as a negative send time and panicked there.
func TestEstimateRefusesNonFiniteRates(t *testing.T) {
	for _, d := range registry.Tools() {
		for _, field := range []string{"Capacity", "RateLo", "RateHi"} {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
				sc := toolstest.New(toolstest.Options{Model: toolstest.CBR})
				p := params(sc)
				switch field {
				case "Capacity":
					p.Capacity = unit.Rate(v)
				case "RateLo":
					p.RateLo = unit.Rate(v)
				case "RateHi":
					p.RateHi = unit.Rate(v)
				}
				rep, err := registry.Estimate(context.Background(), d.Name, p, sc.Transport)
				if err == nil || rep != nil || !strings.Contains(err.Error(), "Params."+field) {
					t.Errorf("%s with %s = %g: report %v, error %v; want no report and an error naming Params.%s",
						d.Name, field, v, rep, err, field)
				}
			}
		}
	}
}

// TestDefaultsMerge checks, for every tool, that zero Params fields
// take the published defaults the descriptor reports: an estimate with
// zero Params and one with ResolvedParams passed explicitly give the
// same Report on the same seeded compile. The delphi row checks that a
// set field wins over its default.
func TestDefaultsMerge(t *testing.T) {
	type row struct {
		tool    string
		p       registry.Params
		streams int // the run's stream count, when the row pins it
	}
	var rows []row
	for _, d := range registry.Tools() {
		rows = append(rows, row{tool: d.Name})
	}
	// Default delphi sends 20 trains; Repeat = 2 must override.
	rows = append(rows, row{tool: "delphi", p: registry.Params{Repeat: 2}, streams: 2})
	sc, ok := scenario.Lookup("canonical")
	if !ok {
		t.Fatal("canonical not in the catalog")
	}
	run := func(tool string, p registry.Params) *core.Report {
		t.Helper()
		cpl, err := sc.CompileSeeded(1)
		if err != nil {
			t.Fatal(err)
		}
		p.Capacity, p.Rand = cpl.Capacity, rng.New(2)
		rep, err := registry.Estimate(context.Background(), tool, p, cpl.Transport)
		if err != nil {
			t.Fatalf("%s with %+v: %v", tool, p, err)
		}
		return rep
	}
	for _, r := range rows {
		d, _ := registry.Lookup(r.tool)
		got := run(r.tool, r.p)
		want := run(r.tool, d.ResolvedParams(r.p))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s with %+v: report %v, with its resolved Params %v", r.tool, r.p, got, want)
		}
		if r.streams > 0 && got.Streams != r.streams {
			t.Errorf("%s with %+v ran %d streams, want %d", r.tool, r.p, got.Streams, r.streams)
		}
	}
}

// TestCancellationMidRun asserts the tentpole's contract: cancelling
// the context mid-run stops the estimator at the next stream boundary
// with a context error, promptly rather than after the full budget.
func TestCancellationMidRun(t *testing.T) {
	for _, tool := range []string{"pathload", "delphi", "spruce", "topp"} {
		tool := tool
		t.Run(tool, func(t *testing.T) {
			sc := toolstest.New(toolstest.Options{Model: toolstest.CBR})
			ctx, cancel := context.WithCancel(context.Background())
			var streams atomic.Int64
			p := params(sc)
			if tool == "spruce" {
				// Spruce batches 25 pairs per stream; ask for enough
				// pairs that the run needs several streams.
				p.Repeat = 100
			}
			p.Observer = func(ev core.StreamEvent) {
				if streams.Add(1) == 2 {
					cancel() // mid-run: two streams resolved, more to come
				}
			}
			rep, err := registry.Estimate(ctx, tool, p, sc.Transport)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v (report %v), want context.Canceled", err, rep)
			}
			if got := streams.Load(); got != 2 {
				t.Errorf("resolved %d streams after cancel, want exactly 2 (stream-boundary stop)", got)
			}
		})
	}
}

// TestCancelledBeforeStart asserts no stream is sent under an already-
// cancelled context.
func TestCancelledBeforeStart(t *testing.T) {
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var streams atomic.Int64
	p := params(sc)
	p.Observer = func(core.StreamEvent) { streams.Add(1) }
	sent := count(sc.Transport)
	if _, err := registry.Estimate(ctx, "pathload", p, sent); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if streams.Load() != 0 || sent.streams != 0 {
		t.Errorf("%d streams observed and %d sent under a cancelled context", streams.Load(), sent.streams)
	}
}

// TestBudgetEnforced asserts the uniform budget is enforced below the
// tool: a stream cap smaller than the tool's appetite fails the run
// with ErrBudget.
func TestBudgetEnforced(t *testing.T) {
	sc := toolstest.New(toolstest.Options{Model: toolstest.CBR})
	p := params(sc)
	p.Budget = core.Budget{MaxStreams: 2}
	var streams atomic.Int64
	p.Observer = func(core.StreamEvent) { streams.Add(1) }
	_, err := registry.Estimate(context.Background(), "delphi", p, sc.Transport)
	if !errors.Is(err, core.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if streams.Load() != 2 {
		t.Errorf("observer saw %d streams, want the budgeted 2", streams.Load())
	}
}

// countingTransport is the cost oracle: below the run, it keeps the
// count each tool once kept by hand — the streams that reach the
// transport and resolve, their spec.Count packets and spec.Bytes()
// bytes — and the clock at the run's start.
type countingTransport struct {
	core.Transport
	streams, packets int
	bytes            unit.Bytes
	start            time.Duration
}

func count(t core.Transport) *countingTransport {
	return &countingTransport{Transport: t, start: t.Now()}
}

func (ct *countingTransport) Probe(spec probe.StreamSpec) (*probe.Record, error) {
	rec, err := ct.Transport.Probe(spec)
	if err == nil {
		ct.streams++
		ct.packets += spec.Count
		ct.bytes += spec.Bytes()
	}
	return rec, err
}

// TestCostOracle: the cost a report carries is the cost the path
// carried. Every registered tool, called by an alias where it has one,
// runs on three catalog rows at seeds 1–3; its report's Streams,
// Packets, ProbeBytes and Elapsed must equal the oracle's count below
// the run, and its Tool must be the canonical name.
func TestCostOracle(t *testing.T) {
	for _, d := range registry.Tools() {
		name := d.Name
		if len(d.Aliases) > 0 {
			name = d.Aliases[0]
		}
		for _, row := range []string{"canonical", "poisson", "mice"} {
			sc, ok := scenario.Lookup(row)
			if !ok {
				t.Fatalf("%s not in the catalog", row)
			}
			for seed := uint64(1); seed <= 3; seed++ {
				cpl, err := sc.CompileSeeded(seed)
				if err != nil {
					t.Fatal(err)
				}
				oracle := count(cpl.Transport)
				rep, err := registry.Estimate(context.Background(), name,
					registry.Params{Capacity: cpl.Capacity, Rand: rng.New(seed + 1)}, oracle)
				if err != nil {
					t.Fatalf("%s on %s seed %d: %v", name, row, seed, err)
				}
				got := [...]any{rep.Tool, rep.Streams, rep.Packets, rep.ProbeBytes, rep.Elapsed}
				want := [...]any{d.Name, oracle.streams, oracle.packets, oracle.bytes, cpl.Transport.Now() - oracle.start}
				if got != want || oracle.streams == 0 {
					t.Errorf("%s on %s seed %d: report stamps (tool, streams, packets, bytes, elapsed) %v, the path carried %v",
						name, row, seed, got, want)
				}
			}
		}
	}
}

// TestPTRErrorsNamePTR: PTR shares IGI's package, and its errors carry
// its own name, both when its Params are refused and when its run fails.
func TestPTRErrorsNamePTR(t *testing.T) {
	for _, c := range []struct {
		why string
		p   func(registry.Params) registry.Params
	}{
		{"a 1-packet train", func(p registry.Params) registry.Params { p.StreamLen = 1; return p }},
		{"a one-stream budget", func(p registry.Params) registry.Params { p.Budget = core.Budget{MaxStreams: 1}; return p }},
	} {
		sc := toolstest.New(toolstest.Options{})
		_, err := registry.Estimate(context.Background(), "ptr", c.p(registry.Params{Capacity: sc.Capacity}), sc.Transport)
		if err == nil || !strings.HasPrefix(err.Error(), "ptr: ") {
			t.Errorf("ptr with %s: err = %v, want it to start \"ptr: \"", c.why, err)
		}
	}
}

// TestMaxDurationOverrun pins how far a run's time passes
// Budget.MaxDuration on the simulator. The cap charges each stream's
// send span, not the spacing guard SimTransport puts before it or the
// wait for its packets to resolve, so a run may pass the cap, and by
// at most Spacing + MaxWait (the defaults, 10 ms and 2 s, on a
// catalog compile).
func TestMaxDurationOverrun(t *testing.T) {
	const spacing, maxWait = 10 * time.Millisecond, 2 * time.Second
	sc, _ := scenario.Lookup("canonical")
	overran := false
	for _, d := range registry.Tools() {
		for _, cap := range []time.Duration{50 * time.Millisecond, 200 * time.Millisecond} {
			cpl, err := sc.CompileSeeded(1)
			if err != nil {
				t.Fatal(err)
			}
			if cpl.Transport.Spacing != 0 || cpl.Transport.MaxWait != 0 {
				t.Fatalf("catalog compile sets Spacing %v, MaxWait %v; the bound assumes the defaults",
					cpl.Transport.Spacing, cpl.Transport.MaxWait)
			}
			start := cpl.Transport.Now()
			_, err = registry.Estimate(context.Background(), d.Name, registry.Params{
				Capacity: cpl.Capacity, Rand: rng.New(2), Budget: core.Budget{MaxDuration: cap},
			}, cpl.Transport)
			if err != nil && !errors.Is(err, core.ErrBudget) {
				t.Fatalf("%s under MaxDuration %v: %v", d.Name, cap, err)
			}
			took := cpl.Transport.Now() - start
			t.Logf("%s under MaxDuration %v: ran %v", d.Name, cap, took)
			overran = overran || took > cap
			if took > cap+spacing+maxWait {
				t.Errorf("%s under MaxDuration %v ran %v, past the cap by more than Spacing + MaxWait", d.Name, cap, took)
			}
		}
	}
	if !overran {
		t.Error("no run passed its MaxDuration: the cap now bounds Elapsed, and Budget.MaxDuration's doc is stale")
	}
}

// TestEveryToolRunsUnderTheDecorators asserts Estimate runs every
// registered tool over a core.Run, which enforces the Budget and tells
// the Observer: under a one-stream budget each tool gets its first
// stream onto the path and no second, the observer sees the stream
// that went out, and a tool that wanted more fails with ErrBudget, not
// some other error.
func TestEveryToolRunsUnderTheDecorators(t *testing.T) {
	for _, name := range registry.Names() {
		sc := toolstest.New(toolstest.Options{Model: toolstest.CBR})
		sent := count(sc.Transport)
		p := params(sc)
		p.Budget = core.Budget{MaxStreams: 1}
		observed := 0
		p.Observer = func(core.StreamEvent) { observed++ }
		_, err := registry.Estimate(context.Background(), name, p, sent)
		if err != nil && !errors.Is(err, core.ErrBudget) {
			t.Errorf("%s: err = %v, want nil or ErrBudget", name, err)
		}
		if sent.streams != 1 {
			t.Errorf("%s: %d streams reached the path under MaxStreams 1, want 1", name, sent.streams)
		}
		if observed != sent.streams {
			t.Errorf("%s: observer saw %d streams, the path carried %d", name, observed, sent.streams)
		}
	}
}

// TestNegativePktSizeRefused: every tool refuses a negative probe
// packet size, which abwprobe's -pktsize flag can pass through, rather
// than probing with it.
func TestNegativePktSizeRefused(t *testing.T) {
	for _, name := range registry.Names() {
		sc := toolstest.New(toolstest.Options{Model: toolstest.CBR})
		p := params(sc)
		p.PktSize = -1500
		if rep, err := registry.Estimate(context.Background(), name, p, sc.Transport); err == nil {
			t.Errorf("%s: PktSize %d accepted: %+v", name, p.PktSize, rep)
		}
	}
}

// TestCompareOrderStable pins the catalog order the compare experiment
// and the CLI inherit: registration order.
func TestCompareOrderStable(t *testing.T) {
	want := []string{"pathload", "topp", "pathchirp", "ptr", "igi", "delphi", "spruce", "learned"}
	got := registry.Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}
