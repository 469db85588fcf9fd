package abw

import (
	"time"

	"abw/internal/monitor"
)

// Monitor is the fleet-scale continuous measurement service: periodic
// estimates for N targets × tools (live receivers or simulated
// scenarios), ring-buffered time series with variation-range rollups,
// a fleet-wide admission-controlled probing budget, and an HTTP surface
// (JSON + Prometheus text) via Handler. Build with NewMonitor, start
// with Start, stop with Close. cmd/abwmonitor is the CLI over it.
type Monitor = monitor.Monitor

// MonitorConfig assembles a Monitor: targets, cadence, concurrency,
// history depth, fleet budget and probe-rate cap, snapshot persistence,
// and the injectable clock that makes tests hermetic.
type MonitorConfig = monitor.Config

// MonitorTarget is one scheduled assignment: a tool run periodically
// against a live receiver address or a cataloged scenario.
type MonitorTarget = monitor.Target

// MonitorStats is a snapshot of a monitor's scheduler counters.
type MonitorStats = monitor.Stats

// MonitorStatus is the full status document (scheduler + ledger +
// optional receiver counters) served at /api/status.
type MonitorStatus = monitor.Status

// MonitorPoint is one completed (or refused) estimation run in a
// series: the estimate and its variation range, the scenario ground
// truth for sim targets, and the run's measured probing cost.
type MonitorPoint = monitor.Point

// MonitorRollup summarizes a series' buffered window: min/mean/max of
// the estimates plus the union of the runs' variation ranges — the
// paper's "avail-bw is a process, not a number" as an operator-facing
// aggregate.
type MonitorRollup = monitor.Rollup

// MonitorSeries is the fixed-capacity ring-buffered history of one
// (target, tool).
type MonitorSeries = monitor.Series

// MonitorStore holds every series a monitor maintains.
type MonitorStore = monitor.Store

// MonitorLedger is the fleet-wide admission controller: a shared,
// concurrency-safe probing budget plus an aggregate probe-rate cap.
// Admission is reserve-then-commit, so concurrent runs can never
// jointly overshoot a cap.
type MonitorLedger = monitor.Ledger

// MonitorLedgerStats snapshots the ledger's admission accounting,
// overall and per tenant.
type MonitorLedgerStats = monitor.LedgerStats

// MonitorCost is one run's declared probing cost: what admission
// reserves up front and what the run commits afterwards.
type MonitorCost = monitor.Cost

// MonitorClock is the injectable time source a Monitor schedules
// against; nil MonitorConfig.Clock means the real clock.
type MonitorClock = monitor.Clock

// FakeClock is a manually advanced MonitorClock for deterministic
// tests: time moves only on Advance, and due timers fire inside it.
type FakeClock = monitor.FakeClock

// NewMonitor validates the config and builds the monitor without
// starting it.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) { return monitor.New(cfg) }

// NewFakeClock returns a fake clock starting at the given instant.
func NewFakeClock(at time.Time) *FakeClock { return monitor.NewFakeClock(at) }
