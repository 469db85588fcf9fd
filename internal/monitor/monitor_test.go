package monitor

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"abw/internal/core"
	"abw/internal/livenet"
	"abw/internal/tools/registry"
	"abw/internal/unit"
)

// waitFor polls cond until it holds or the deadline expires. The fake
// clock makes *scheduling* deterministic, but dispatched runs execute
// on real goroutines, so tests wait for them to drain.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// drain advances the fake clock by d and waits until the store holds at
// least wantPoints points with no run in flight — i.e. the runs the
// advance made due have completed and been rescheduled. (Checking
// Active==0 alone races with the scheduler: it is also true before the
// loop dispatches anything.)
func drain(t testing.TB, m *Monitor, clk *FakeClock, d time.Duration, wantPoints uint64) {
	t.Helper()
	clk.Advance(d)
	waitFor(t, "runs to drain", func() bool {
		st := m.Stats()
		return st.Points >= wantPoints && st.Active == 0 && st.Scheduled == st.Targets
	})
}

func simTargets() []Target {
	return []Target{
		{Name: "edge-a", Tenant: "acme", Tool: "spruce", Scenario: "canonical", Params: registry.Params{Repeat: 2}},
		{Name: "edge-b", Tenant: "acme", Tool: "delphi", Scenario: "bursty", Params: registry.Params{Repeat: 2, StreamLen: 5}},
		{Name: "core-1", Tenant: "globex", Tool: "pathload", Scenario: "step", Params: registry.Params{Repeat: 2, StreamLen: 20, MaxRounds: 6}},
	}
}

// runScripted builds a monitor with `workers` workers (0 for the
// default) over a fake clock, advances it through `steps` intervals,
// closes it, and returns the store snapshot.
func runScripted(t *testing.T, seed uint64, steps, workers int) Snapshot {
	t.Helper()
	return runScriptedWith(t, steps, Config{Seed: seed, MaxConcurrent: workers})
}

// runScriptedWith is runScripted over cfg, with the targets, the
// interval and the fake clock filled in.
func runScriptedWith(t *testing.T, steps int, cfg Config) Snapshot {
	t.Helper()
	clk := NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	cfg.Targets, cfg.Interval, cfg.Clock = simTargets(), 10*time.Second, clk
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	for i := 0; i < steps; i++ {
		drain(t, m, clk, 11*time.Second, uint64(3*(i+1)))
	}
	m.Close()
	return m.Store().Snapshot(time.Unix(0, 0))
}

// TestMonitorDeterministicUnderFakeClock is the hermeticity acceptance:
// two monitors with the same config, seed, and advance script produce
// byte-identical history — every estimate, timestamp, sequence number,
// and probing cost. This is what makes the monitor testable in CI and
// its incidents replayable. The worker count is not part of that
// function: one worker gives the history the default pool gives.
func TestMonitorDeterministicUnderFakeClock(t *testing.T) {
	a := runScripted(t, 42, 3, 0)
	b := runScripted(t, 42, 3, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (config, seed, advance script) produced different histories")
	}
	if one := runScripted(t, 42, 3, 1); !reflect.DeepEqual(a, one) {
		t.Fatal("MaxConcurrent 1 produced a different history than the default")
	}
	if len(a.Series) != 3 {
		t.Fatalf("snapshot has %d series, want 3", len(a.Series))
	}
	for _, ss := range a.Series {
		if len(ss.Points) != 3 {
			t.Errorf("%s/%s: %d points, want 3", ss.Target, ss.Tool, len(ss.Points))
		}
		for _, p := range ss.Points {
			if p.Err != "" {
				t.Errorf("%s/%s seq %d: unexpected error %q", ss.Target, ss.Tool, p.Seq, p.Err)
			}
			if p.True <= 0 {
				t.Errorf("%s/%s seq %d: sim point lacks ground truth", ss.Target, ss.Tool, p.Seq)
			}
			if p.ProbeBytes <= 0 {
				t.Errorf("%s/%s seq %d: no probing cost recorded", ss.Target, ss.Tool, p.Seq)
			}
		}
	}
	// A different seed must actually change something (estimates, jitter
	// draws) — otherwise the determinism above is vacuous.
	c := runScripted(t, 7, 3, 0)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical histories")
	}
}

// TestMonitorHistoryGolden pins the scripted history itself, not just
// its repeatability: every run's rng stream (derived from the seed and
// the run's sequence number), jitter draw, estimate and probing cost.
// A change to how per-run seeds are derived, or to the send times a
// probe stream is built from, moves this hash.
func TestMonitorHistoryGolden(t *testing.T) {
	const want = "bc04bb2d08b93691f5f17d273a43aa301d374db0b87a2d8cde9979206326bbba"
	snap := runScripted(t, 42, 3, 0)
	snap.TakenAt = snap.TakenAt.UTC() // time.Unix is local; the hash must not depend on TZ
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Errorf("history sha256 %s, want %s", got, want)
	}
}

// TestSimRunsIgnoreRunTimeout: RunTimeout is a wall-clock watchdog for
// live transports. A sim run advances virtual time, is bounded by its
// reservation, and under a FakeClock its history is a function of
// (config, seed, advance script) alone, so a timeout too short for any
// run to finish changes nothing.
func TestSimRunsIgnoreRunTimeout(t *testing.T) {
	want := runScripted(t, 42, 3, 0)
	got := runScriptedWith(t, 3, Config{Seed: 42, RunTimeout: time.Nanosecond})
	for _, ss := range got.Series {
		for _, p := range ss.Points {
			if p.Err != "" {
				t.Fatalf("%s/%s seq %d failed under a 1 ns RunTimeout: %s", ss.Target, ss.Tool, p.Seq, p.Err)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a 1 ns RunTimeout changed the sim history")
	}
}

// silentReceiver opens a session on every control connection and then
// never answers: a live run's first "stream" request blocks it waiting
// for "ready". It counts the sessions it opened and those still open
// (the sender has not closed them), and signals each request it reads
// on heard.
func silentReceiver(t *testing.T) (addr string, opened, open *atomic.Int32, heard <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	opened, open = new(atomic.Int32), new(atomic.Int32)
	h := make(chan struct{}, 16)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			opened.Add(1)
			open.Add(1)
			go func() {
				defer open.Add(-1)
				defer c.Close()
				io.WriteString(c, `{"type":"session","session":7}`+"\n")
				buf := make([]byte, 1024)
				for {
					if _, err := c.Read(buf); err != nil {
						return // the sender closed the session
					}
					select {
					case h <- struct{}{}:
					default:
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), opened, open, h
}

// stuckTarget is one live delphi target on a receiver that never
// answers.
func stuckTarget(addr string) []Target {
	return []Target{{Name: "stuck", Tool: "delphi", Addr: addr,
		Params: registry.Params{Capacity: 100 * unit.Mbps, Repeat: 1, StreamLen: 5}}}
}

// TestLiveWatchdogClosesStuckTransport: a live run blocked in a socket
// read is ended by the RunTimeout watchdog, which closes its transport;
// the run fails, the session is discarded rather than returned to its
// slot, and the next run dials a new one.
func TestLiveWatchdogClosesStuckTransport(t *testing.T) {
	addr, opened, _, _ := silentReceiver(t)
	clk := NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	m, err := New(Config{
		Targets:    stuckTarget(addr),
		Interval:   10 * time.Second,
		RunTimeout: 100 * time.Millisecond,
		PoolSize:   1,
		Clock:      clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Close()
	clk.Advance(11 * time.Second)
	waitFor(t, "the stuck run to end", func() bool { st := m.Stats(); return st.RunsErr == 1 && st.Active == 0 })
	if st := m.Stats(); st.RunsOK != 0 || st.Redials != 1 {
		t.Errorf("runs ok %d, redials %d; want 0 and 1", st.RunsOK, st.Redials)
	}
	s, _ := m.Store().Lookup("stuck/delphi")
	if pts := s.Last(0); len(pts) != 1 || pts[0].Err == "" {
		t.Errorf("points %+v, want one failed run", pts)
	}
	clk.Advance(11 * time.Second)
	waitFor(t, "the second stuck run to end", func() bool { st := m.Stats(); return st.RunsErr == 2 && st.Active == 0 })
	if n, st := opened.Load(), m.Stats(); n != 2 || st.Redials != 2 {
		t.Errorf("%d sessions dialed, redials %d; want the run after the discard to dial a second session", n, st.Redials)
	}
}

// TestMonitorCloseEndsStuckLiveRun: Close cancels the monitor's root
// context, which fires the watchdog of every in-flight live run, so a
// run stuck on a silent receiver ends at once — not at its 2 min
// RunTimeout, nor at the transport's own reply bound — and its session
// is closed.
func TestMonitorCloseEndsStuckLiveRun(t *testing.T) {
	addr, _, open, heard := silentReceiver(t)
	clk := NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	m, err := New(Config{Targets: stuckTarget(addr), Interval: 10 * time.Second, PoolSize: 1, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	clk.Advance(11 * time.Second)
	select {
	case <-heard: // the run's stream request is on the wire, awaiting "ready"
	case <-time.After(10 * time.Second):
		t.Fatal("the live run never sent its stream request")
	}
	done := make(chan struct{})
	go func() { m.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Error("Close still blocked 1s after it was called: the stuck run's watchdog did not fire")
		<-done
	}
	if st := m.Stats(); st.Active != 0 || st.RunsOK != 0 {
		t.Errorf("after Close: %d active, %d ok; want 0 and 0", st.Active, st.RunsOK)
	}
	waitFor(t, "the stuck session closed", func() bool { return open.Load() == 0 })
}

// TestLiveLeaseBoundsSessions: three live targets share one receiver
// through a single slot, so however the three workers interleave,
// every session the receiver ever saw is the first dial or the redial
// of a discarded one.
func TestLiveLeaseBoundsSessions(t *testing.T) {
	r, err := livenet.ListenReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	var targets []Target
	for _, name := range []string{"a", "b", "c"} {
		targets = append(targets, Target{Name: name, Tool: "delphi", Addr: r.Addr(),
			Params: registry.Params{Capacity: 200 * unit.Mbps, Repeat: 1, StreamLen: 5}})
	}
	clk := NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	m, err := New(Config{
		Targets:       targets,
		Interval:      10 * time.Second,
		Seed:          1,
		MaxConcurrent: 3,
		PoolSize:      1,
		Clock:         clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	for cycle := uint64(1); cycle <= 3; cycle++ {
		drain(t, m, clk, 11*time.Second, 3*cycle)
	}
	m.Close()
	st, rs := m.Stats(), r.Stats()
	if st.RunsOK == 0 {
		t.Fatalf("no live run succeeded: %+v", st)
	}
	if rs.Sessions != 1+st.Redials {
		t.Errorf("receiver saw %d sessions with %d redials; one slot allows 1 + redials", rs.Sessions, st.Redials)
	}
	waitFor(t, "receiver back to baseline", func() bool { return r.Stats().ActiveSessions == 0 })
}

// TestFirstRunAtDefaultParams: every registered tool, as a sim target
// with no Params set, succeeds on its first run. Before any run the
// monitor reserves a cost projected from the tool's resolved Params, and
// that reservation is the run's hard budget, so a projection below what
// the tool's defaults probe fails the run with core.ErrBudget.
func TestFirstRunAtDefaultParams(t *testing.T) {
	for _, tool := range registry.Names() {
		t.Run(tool, func(t *testing.T) {
			clk := NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
			m, err := New(Config{
				Targets:  []Target{{Name: "t", Tool: tool, Scenario: "canonical"}},
				Interval: 10 * time.Second,
				Seed:     1,
				Clock:    clk,
			})
			if err != nil {
				t.Fatal(err)
			}
			m.Start()
			drain(t, m, clk, 11*time.Second, 1)
			m.Close()
			snap := m.Store().Snapshot(time.Unix(0, 0))
			if len(snap.Series) != 1 || len(snap.Series[0].Points) == 0 {
				t.Fatalf("no run recorded: %+v", snap)
			}
			if p := snap.Series[0].Points[0]; p.Err != "" {
				t.Errorf("first run failed: %s", p.Err)
			}
		})
	}
}

// TestMonitorFleetBudgetEnforced: with a fleet budget sized for only a
// few runs, the monitor keeps scheduling but the ledger refuses the
// excess, refusals land in the series as error points, and the charged
// totals never exceed the cap — the admission acceptance at the
// monitor level, not just the ledger level.
func TestMonitorFleetBudgetEnforced(t *testing.T) {
	// A spruce run with Repeat 2 actually sends 2 pairs = 6 KB; EstBytes
	// declares 12 KB so the first reservation fits under the 20 KB cap,
	// the first two runs succeed, and every later one is refused.
	const maxBytes = 20_000
	clk := NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	m, err := New(Config{
		Targets: []Target{
			{Name: "edge-a", Tool: "spruce", Scenario: "canonical",
				Params: registry.Params{Repeat: 2}, EstBytes: 12_000},
		},
		Interval: 10 * time.Second,
		Seed:     1,
		Budget:   core.Budget{MaxBytes: maxBytes},
		Clock:    clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	for i := 0; i < 6; i++ {
		drain(t, m, clk, 11*time.Second, uint64(i+1))
	}
	m.Close()

	st := m.Stats()
	led := m.Ledger().Stats()
	if led.Bytes > maxBytes {
		t.Errorf("fleet charge %d bytes exceeds cap %d", led.Bytes, maxBytes)
	}
	if st.RunsOK == 0 {
		t.Error("no run succeeded; the cap should admit at least one")
	}
	if st.Refused == 0 {
		t.Error("no run was refused; the cap is not binding in this test")
	}
	s, ok := m.Store().Lookup("edge-a/spruce")
	if !ok {
		t.Fatal("series missing")
	}
	sawRefusal := false
	for _, p := range s.Last(0) {
		if p.Err != "" && strings.Contains(p.Err, "refused") {
			sawRefusal = true
		}
	}
	if !sawRefusal {
		t.Error("refusals did not land in the series as error points")
	}
}

// TestSimRunBudgetIsReservation: a sim target's reservation is its
// run's hard core.Budget, as a live target's is. Spruce with Repeat 2
// sends two 3 KB pairs; a 4 KB reservation admits the first and stops
// the second with ErrBudget, and the doubled reservation then fits.
func TestSimRunBudgetIsReservation(t *testing.T) {
	clk := NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	m, err := New(Config{
		Targets: []Target{
			{Name: "edge-a", Tool: "spruce", Scenario: "canonical",
				Params: registry.Params{Repeat: 2}, EstBytes: 4_000},
		},
		Interval: 10 * time.Second,
		Seed:     1,
		Clock:    clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	drain(t, m, clk, 11*time.Second, 1)
	drain(t, m, clk, 11*time.Second, 2)
	m.Close()

	s, ok := m.Store().Lookup("edge-a/spruce")
	if !ok {
		t.Fatal("series missing")
	}
	pts := s.Last(0)
	if len(pts) != 2 {
		t.Fatalf("%d points, want 2", len(pts))
	}
	if !strings.Contains(pts[0].Err, core.ErrBudget.Error()) {
		t.Errorf("first run: err %q, want the 4 KB reservation to stop the second pair", pts[0].Err)
	}
	if pts[1].Err != "" || pts[1].ProbeBytes != 6_000 {
		t.Errorf("second run: err %q after %d bytes, want both pairs under the doubled reservation", pts[1].Err, pts[1].ProbeBytes)
	}
}

// TestMonitorLiveSessionsLeakFree is the stream-state-leak acceptance:
// a monitor probing a real in-process receiver runs several cycles,
// then Close returns the receiver to baseline — zero active sessions,
// zero active streams.
func TestMonitorLiveSessionsLeakFree(t *testing.T) {
	r, err := livenet.ListenReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	m, err := New(Config{
		Targets: []Target{
			{Name: "loop", Tool: "delphi", Addr: r.Addr(),
				Params: registry.Params{Capacity: 200 * unit.Mbps, Repeat: 2, StreamLen: 5}},
		},
		Interval: 50 * time.Millisecond,
		Seed:     3,
		PoolSize: 2,
		Receiver: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	waitFor(t, "three live runs", func() bool { return m.Stats().RunsOK >= 3 })
	m.Close()

	waitFor(t, "receiver back to baseline", func() bool {
		st := r.Stats()
		return st.ActiveSessions == 0 && st.ActiveStreams == 0
	})
	if st := m.Stats(); st.RunsErr > st.RunsOK {
		t.Errorf("mostly failing runs: %d ok, %d err", st.RunsOK, st.RunsErr)
	}
	s, ok := m.Store().Lookup("loop/delphi")
	if !ok || s.Len() == 0 {
		t.Fatal("live series empty")
	}
	for _, p := range s.Last(0) {
		if p.Err == "" && p.True != 0 {
			t.Errorf("live point carries ground truth %v; live paths have no oracle", p.True)
		}
	}
}

// TestMonitorSnapshotRestartContinuity: a monitor restarted over the
// same snapshot path presents continuous history — old points retained,
// sequence numbers continuing, not restarting at zero.
func TestMonitorSnapshotRestartContinuity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	cfg := func(clk *FakeClock) Config {
		return Config{
			Targets: []Target{
				{Name: "edge-a", Tool: "spruce", Scenario: "canonical", Params: registry.Params{Repeat: 2}},
			},
			Interval:     10 * time.Second,
			Seed:         9,
			SnapshotPath: path,
			Clock:        clk,
		}
	}

	clk := NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	m1, err := New(cfg(clk))
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	drain(t, m1, clk, 11*time.Second, 1)
	drain(t, m1, clk, 11*time.Second, 2)
	m1.Close() // writes the final snapshot
	s1, _ := m1.Store().Lookup("edge-a/spruce")
	if s1.Len() != 2 {
		t.Fatalf("first life recorded %d points, want 2", s1.Len())
	}

	clk2 := NewFakeClock(time.Unix(1_700_000_100, 0).UTC())
	m2, err := New(cfg(clk2))
	if err != nil {
		t.Fatal(err)
	}
	m2.Start()
	// Appends counts this life's appends only; the restored points do
	// not move it.
	drain(t, m2, clk2, 11*time.Second, 1)
	m2.Close()
	s2, ok := m2.Store().Lookup("edge-a/spruce")
	if !ok {
		t.Fatal("restarted store lost the series")
	}
	pts := s2.Last(0)
	if len(pts) != 3 {
		t.Fatalf("restarted series has %d points, want 2 restored + 1 new", len(pts))
	}
	if pts[2].Seq != 2 {
		t.Errorf("new point Seq = %d, want 2 (continuing the snapshot)", pts[2].Seq)
	}
}

// TestNewValidation: configuration errors surface at New with the
// offending target named, not at the first scheduled run.
func TestNewValidation(t *testing.T) {
	base := Target{Name: "t", Tool: "spruce", Scenario: "canonical"}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"no targets", func(c *Config) { c.Targets = nil }, "at least one target"},
		{"unknown tool", func(c *Config) { c.Targets[0].Tool = "warpdrive" }, "unknown tool"},
		{"unknown scenario", func(c *Config) { c.Targets[0].Scenario = "atlantis" }, "unknown scenario"},
		{"both addr and scenario", func(c *Config) { c.Targets[0].Addr = "127.0.0.1:1" }, "exactly one"},
		{"neither addr nor scenario", func(c *Config) { c.Targets[0].Scenario = "" }, "exactly one"},
		{"no name", func(c *Config) { c.Targets[0].Name = "" }, "needs a name"},
		{"preset budget", func(c *Config) { c.Targets[0].Params.Budget = core.Budget{MaxBytes: 1} }, "owned by the monitor"},
		{"live missing capacity", func(c *Config) {
			c.Targets[0] = Target{Name: "t", Tool: "spruce", Addr: "127.0.0.1:1"}
		}, "needs Params.Capacity"},
		{"duplicate", func(c *Config) { c.Targets = append(c.Targets, base) }, "duplicate target"},
	}
	for _, tc := range cases {
		cfg := Config{Targets: []Target{base}, Clock: NewFakeClock(time.Unix(0, 0))}
		tc.mutate(&cfg)
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// And the happy path still constructs.
	if _, err := New(Config{Targets: []Target{base}, Clock: NewFakeClock(time.Unix(0, 0))}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestMonitorCloseIdempotent: Close twice (including before Start) is
// safe and leaves Stats consistent.
func TestMonitorCloseIdempotent(t *testing.T) {
	m, err := New(Config{
		Targets: []Target{{Name: "t", Tool: "spruce", Scenario: "canonical"}},
		Clock:   NewFakeClock(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close()

	clk := NewFakeClock(time.Unix(0, 0))
	m2, err := New(Config{
		Targets: []Target{{Name: "t", Tool: "spruce", Scenario: "canonical", Params: registry.Params{Repeat: 1}}},
		Clock:   clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	m2.Start()
	drain(t, m2, clk, time.Minute, 1)
	m2.Close()
	m2.Close()
	if st := m2.Stats(); st.RunsOK == 0 {
		t.Error("no run completed before close")
	}
}

// slipClock is a FakeClock that advances itself by slip right after the
// first Now() reading that follows a NewTimer call — with one target and
// no run in flight, that reading is the scheduler loop computing its
// wait, so the advance lands exactly between that reading and the
// timer.Reset that re-bases on a later one.
type slipClock struct {
	*FakeClock
	slip  time.Duration
	armed atomic.Bool
}

func (c *slipClock) NewTimer(d time.Duration) Timer {
	t := c.FakeClock.NewTimer(d)
	c.armed.Store(true)
	return t
}

func (c *slipClock) Now() time.Time {
	now := c.FakeClock.Now()
	if c.armed.CompareAndSwap(true, false) {
		c.FakeClock.Advance(c.slip)
	}
	return now
}

// TestSchedulerSurvivesAdvanceDuringRearm: an Advance that crosses the
// head deadline between the loop's Now() and its timer.Reset used to
// leave the timer armed past the deadline with nothing to wake the
// loop. No further Advance is made here, so the run happens only if
// the loop notices on its own.
func TestSchedulerSurvivesAdvanceDuringRearm(t *testing.T) {
	clk := &slipClock{FakeClock: NewFakeClock(time.Unix(1_700_000_000, 0).UTC()), slip: 11 * time.Second}
	m, err := New(Config{
		Targets:  simTargets()[:1],
		Interval: 10 * time.Second,
		Seed:     1,
		Clock:    clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Close()
	waitFor(t, "the run made due while the loop re-armed", func() bool { return m.Stats().Points >= 1 })
}
