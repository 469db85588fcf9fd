package monitor

import (
	"container/heap"
	"fmt"
	"runtime"
	"testing"
	"time"

	"abw/internal/core"
	"abw/internal/tools/registry"
	"abw/internal/unit"
)

// fleetTargets is n one-pair spruce sim targets over four scenarios
// and seven tenants: the fleet the load test, the bounded-worker test
// and BenchmarkMonitorCycle drive.
func fleetTargets(n int) []Target {
	scenarios := []string{"canonical", "bursty", "poisson", "mice"}
	targets := make([]Target, n)
	for i := range targets {
		targets[i] = Target{
			Name:     fmt.Sprintf("edge-%04d", i),
			Tenant:   fmt.Sprintf("tenant-%d", i%7),
			Tool:     "spruce",
			Scenario: scenarios[i%len(scenarios)],
			Params:   registry.Params{Repeat: 1},
			EstBytes: 8_000,
		}
	}
	return targets
}

// TestMonitorLoadThousandSessions is the scale acceptance: 1000
// concurrently scheduled sim sessions sustain two full measurement
// cycles under a fake clock, with the fleet ledger's caps holding and
// shutdown leaving nothing in flight. Hermetic — no sockets, no real
// sleeping — so it runs in CI at full size.
func TestMonitorLoadThousandSessions(t *testing.T) {
	const n = 1000
	const maxBytes = unit.Bytes(100_000_000)
	clk := NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	m, err := New(Config{
		Targets:       fleetTargets(n),
		Interval:      10 * time.Second,
		Seed:          11,
		MaxConcurrent: 64,
		History:       8,
		Budget:        core.Budget{MaxBytes: maxBytes},
		Clock:         clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if st := m.Stats(); st.Scheduled != n {
		t.Fatalf("Scheduled = %d after Start, want %d", st.Scheduled, n)
	}
	for i := 0; i < 2; i++ {
		drain(t, m, clk, 11*time.Second, uint64(n*(i+1)))
	}
	st := m.Stats()
	if st.RunsOK != 2*n {
		t.Errorf("RunsOK = %d, want %d (every scheduled run succeeding)", st.RunsOK, 2*n)
	}
	led := m.Ledger().Stats()
	if led.Bytes > maxBytes {
		t.Errorf("fleet charge %d exceeds cap %d", led.Bytes, maxBytes)
	}
	if len(led.Tenants) != 7 {
		t.Errorf("ledger tracked %d tenants, want 7", len(led.Tenants))
	}
	if got := len(m.Store().All()); got != n {
		t.Errorf("store holds %d series, want %d", got, n)
	}

	m.Close()
	if st := m.Stats(); st.Active != 0 {
		t.Errorf("%d runs still in flight after Close", st.Active)
	}
	// Closing again must stay a no-op at scale too.
	m.Close()
}

// TestMonitorRunsOnBoundedWorkers: a thousand runs falling due at once
// occupy MaxConcurrent workers and the scheduler loop, not a goroutine
// each, and Close takes every one of those goroutines down.
func TestMonitorRunsOnBoundedWorkers(t *testing.T) {
	const n, workers = 1000, 8
	// slack admits goroutines outside the monitor that the runtime or an
	// earlier test may start or end while this one samples.
	const slack = 2
	clk := NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	m, err := New(Config{
		Targets:       fleetTargets(n),
		Interval:      10 * time.Second,
		Seed:          11,
		MaxConcurrent: workers,
		History:       8,
		Clock:         clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	m.Start()
	limit := before + workers + 1 + slack
	peak := 0
	for i := 0; i < 2; i++ {
		clk.Advance(11 * time.Second)
		want := uint64(n * (i + 1))
		waitFor(t, "the cycle to drain", func() bool {
			peak = max(peak, runtime.NumGoroutine())
			st := m.Stats()
			return st.Points >= want && st.Active == 0 && st.Scheduled == st.Targets
		})
	}
	if peak > limit {
		t.Errorf("%d goroutines while runs drained, want at most %d (%d before Start + %d workers + loop + %d slack)",
			peak, limit, before, workers, slack)
	}
	m.Close()
	waitFor(t, "goroutines back to the pre-Start count", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// TestSimRunAllocations pins what one steady-state sim run allocates
// end to end (admit, probe, estimate, commit, append, reschedule): one
// one-pair spruce target on canonical, run by hand with no workers. The
// count is the probe and the estimate; the run's own bookkeeping adds
// no timer, no formatted label and no second copy of the send times.
func TestSimRunAllocations(t *testing.T) {
	const maxAllocs = 11
	m, err := New(Config{Targets: fleetTargets(1), Clock: NewFakeClock(time.Unix(1_700_000_000, 0).UTC())})
	if err != nil {
		t.Fatal(err)
	}
	e := m.entries[0]
	run := func() {
		m.mu.Lock()
		m.active++ // as the loop does when it dispatches
		m.mu.Unlock()
		m.runEntry(e)
		m.mu.Lock()
		heap.Pop(&m.heap) // the run rescheduled itself
		m.mu.Unlock()
	}
	run() // compiles the scenario
	allocs := testing.AllocsPerRun(200, run)
	if st := m.Stats(); st.RunsErr != 0 || st.Recompiles != 0 {
		t.Fatalf("%d runs failed and %d recompiled; the count is of steady-state runs", st.RunsErr, st.Recompiles)
	}
	if allocs > maxAllocs {
		t.Errorf("a sim run allocates %v times, want at most %d", allocs, maxAllocs)
	}
}

// BenchmarkMonitorCycle times the run rung of the monitor ladder (ledger
// admit, sim run, store append, reschedule): one fake-clock cycle in
// which 1000 spruce sim targets, shaped like the benchmark's fleet
// workload, each fall due once and run on 64 workers.
func BenchmarkMonitorCycle(b *testing.B) {
	const n = 1000
	clk := NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	m, err := New(Config{
		Targets:       fleetTargets(n),
		Interval:      10 * time.Second,
		Seed:          1,
		MaxConcurrent: 64,
		History:       64,
		Budget:        core.Budget{MaxBytes: 1 << 40},
		Clock:         clk,
	})
	if err != nil {
		b.Fatal(err)
	}
	m.Start()
	defer m.Close()
	drain(b, m, clk, 11*time.Second, n) // compiles every target's scenario
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(b, m, clk, 11*time.Second, uint64(n*(i+2)))
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "runs/s")
}

// BenchmarkMonitorIngest measures the store's append path — the
// per-run cost of recording a point into a full ring with concurrent
// rollup-free appends across many series, i.e. the monitor's steady
// state write load.
func BenchmarkMonitorIngest(b *testing.B) {
	st := NewStore(512)
	const series = 64
	keys := make([]string, series)
	for i := range keys {
		keys[i] = fmt.Sprintf("edge-%03d", i)
	}
	at := time.Unix(1_700_000_000, 0)
	p := Point{At: at, Point: 40 * unit.Mbps, Low: 35 * unit.Mbps, High: 45 * unit.Mbps,
		Streams: 2, Packets: 4, ProbeBytes: 6000, Elapsed: 12 * time.Millisecond}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			st.Append(keys[i%series], "spruce", "default", p)
			i++
		}
	})
}
