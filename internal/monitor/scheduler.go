package monitor

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"time"
	"unicode/utf8"

	"abw/internal/core"
	"abw/internal/livenet"
	"abw/internal/rng"
	"abw/internal/scenario"
	"abw/internal/tools/registry"
	"abw/internal/unit"
)

// entry is one scheduled (target, tool) assignment and its run state.
// The scheduler guarantees at most one run of an entry is in flight,
// so everything below the config fields is accessed by exactly one
// goroutine at a time.
type entry struct {
	key        string // "name/tool", the series key
	tenant     string
	t          Target
	d          registry.Descriptor
	sc         scenario.Descriptor // set for sim targets
	interval   time.Duration
	jitter     *rng.Rand
	jitterFrac float64
	runLabel   rng.Label // "run/"+key+"/", hashed once; each run appends runSeq

	at         time.Time // next due time, owned by the scheduler under m.mu
	dispatched time.Time // when the loop took it off the heap
	runSeq     uint64

	sim      *scenario.Compiled
	simEpoch uint64

	cost      Cost
	costKnown bool
}

// newEntry validates one target against the tool registry and the
// scenario catalog, so every configuration error surfaces at New, not
// minutes later on the first scheduled run.
func (m *Monitor) newEntry(i int, t Target) (*entry, error) {
	if t.Name == "" {
		return nil, fmt.Errorf("monitor: target %d needs a name", i)
	}
	if t.Tenant == "" {
		t.Tenant = "default"
	}
	if !utf8.ValidString(t.Name) || !utf8.ValidString(t.Tenant) {
		return nil, fmt.Errorf("monitor: target %d: name %q and tenant %q must be valid UTF-8", i, t.Name, t.Tenant)
	}
	d, ok := registry.Lookup(t.Tool)
	if !ok {
		return nil, fmt.Errorf("monitor: target %q: unknown tool %q (have %v)", t.Name, t.Tool, registry.Names())
	}
	if (t.Addr == "") == (t.Scenario == "") {
		return nil, fmt.Errorf("monitor: target %q: exactly one of Addr and Scenario must be set", t.Name)
	}
	if t.Params.Rand != nil || t.Params.Observer != nil || !t.Params.Budget.IsZero() {
		return nil, fmt.Errorf("monitor: target %q: Rand, Observer and Budget are run wiring owned by the monitor", t.Name)
	}
	e := &entry{
		key:        t.Name + "/" + d.Name,
		tenant:     t.Tenant,
		t:          t,
		d:          d,
		interval:   t.Interval,
		jitterFrac: m.cfg.Jitter,
	}
	if e.interval <= 0 {
		e.interval = m.cfg.Interval
	}
	e.jitter = rng.Derive(m.cfg.Seed, "jitter/"+e.tenant+"/"+e.key)
	e.runLabel = rng.NewLabel("run/" + e.key + "/")
	if t.Scenario != "" {
		sc, ok := scenario.Lookup(t.Scenario)
		if !ok {
			return nil, fmt.Errorf("monitor: target %q: unknown scenario %q (have %v)", t.Name, t.Scenario, scenario.Names())
		}
		e.sc = sc
		return e, nil
	}
	// Live targets get Rand from the monitor; every other requirement
	// must be satisfied by the configured Params (a sim target's
	// Capacity comes from ground truth instead).
	for _, miss := range d.MissingParams(t.Params) {
		if miss != "Rand" {
			return nil, fmt.Errorf("monitor: target %q: %s needs Params.%s", t.Name, d.Name, miss)
		}
	}
	return e, nil
}

// nextCost projects the run's probing cost for admission: the last
// run's actuals with 50% headroom once known, otherwise a conservative
// bound derived from the tool's defaults-resolved parameters (with 2x
// headroom — the reservation doubles as the run's hard core.Budget, so
// undershooting kills runs, while overshooting merely defers them).
func (e *entry) nextCost() Cost {
	if e.costKnown {
		return e.cost
	}
	p := e.d.ResolvedParams(e.t.Params)
	streams := p.Repeat
	if streams < 1 {
		streams = 1
	}
	rounds := p.MaxRounds
	if rounds < 1 {
		rounds = 1
	}
	streams *= rounds
	slen := p.StreamLen
	if slen < 1 {
		slen = 100
	}
	psize := p.PktSize
	if psize <= 0 {
		psize = 1500
	}
	c := Cost{
		Streams: 2 * streams,
		Packets: 2 * streams * slen,
		Bytes:   2 * unit.Bytes(streams*slen) * psize,
	}
	if e.t.EstBytes > 0 {
		c.Bytes = e.t.EstBytes
	}
	return c
}

// learnCost adapts the projection to a completed run's actuals.
func (e *entry) learnCost(actual Cost) {
	if actual.Bytes <= 0 {
		return
	}
	e.cost = Cost{
		Streams: actual.Streams*3/2 + 1,
		Packets: actual.Packets*3/2 + 1,
		Bytes:   actual.Bytes*3/2 + 1,
	}
	e.costKnown = true
}

// doubleCost reacts to a run that exhausted its own reservation: the
// next one asks for twice as much instead of failing forever.
func (e *entry) doubleCost() {
	if !e.costKnown {
		e.cost = e.nextCost()
		e.costKnown = true
	}
	e.cost.Streams *= 2
	e.cost.Packets *= 2
	e.cost.Bytes *= 2
}

// loop is the scheduler: pop due entries in due-time order and hand
// each to a worker, waiting while every worker is busy; wait for the
// earliest deadline otherwise. Every wait goes through the injectable
// clock, which is what makes the whole service hermetic under a
// FakeClock.
func (m *Monitor) loop() {
	defer close(m.loopDone)
	defer close(m.jobs)
	timer := m.clock.NewTimer(time.Hour)
	defer timer.Stop()
	woke := false
	for {
		m.mu.Lock()
		wait := time.Hour
		var due *entry
		var deadline time.Time // head entry's due time, zero when idle
		if len(m.heap) > 0 {
			deadline = m.heap[0].at
			now := m.clock.Now()
			if d := deadline.Sub(now); d <= 0 {
				due = heap.Pop(&m.heap).(*entry)
				due.dispatched = now
				m.active++
			} else {
				wait = d
			}
		}
		if due == nil {
			m.timerRearms++
			if woke {
				m.idleWakeups++
			}
		}
		m.mu.Unlock()
		woke = false
		if due != nil {
			select {
			case m.jobs <- due:
			case <-m.root.Done():
				m.mu.Lock()
				m.active--
				m.mu.Unlock()
				return
			}
			continue
		}
		timer.Reset(wait)
		// Reset re-bases wait on its own, later reading of the clock. If
		// the clock moved past the deadline between the two readings the
		// timer now sits beyond it and nothing else would wake the loop.
		if !deadline.IsZero() && !m.clock.Now().Before(deadline) {
			continue
		}
		select {
		case <-m.root.Done():
			return
		case <-timer.C():
		case <-m.wake:
		}
		woke = true
	}
}

// worker runs the entries the loop hands it, one at a time, until the
// loop closes the channel. Workers live as long as the monitor, so a
// run starts on a stack an earlier run already grew.
func (m *Monitor) worker() {
	defer m.wg.Done()
	for e := range m.jobs {
		m.runEntry(e)
	}
}

// wakeLoop nudges the scheduler to re-examine the heap.
func (m *Monitor) wakeLoop() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// runEntry executes one scheduled run end to end: admission,
// transport, estimate, settlement, store append, and rescheduling. The
// worker running it is the only goroutine touching the entry's run
// state while it holds it.
func (m *Monitor) runEntry(e *entry) {
	var next time.Time // zero = do not reschedule (shutdown)

	var ran, failed bool // a run settled; it ended in an error
	defer func() {
		m.mu.Lock()
		m.active--
		if ran {
			if failed {
				m.runsErr++
			} else {
				m.runsOK++
			}
		}
		if !next.IsZero() && !m.closed {
			if now := m.clock.Now(); next.Before(now) {
				// The run (or its deferral) outlived its next slot; slide
				// instead of overlapping — an entry never runs twice at
				// once.
				m.overruns++
				next = now
			}
			e.at = next
			heap.Push(&m.heap, e)
		}
		m.mu.Unlock()
		m.wakeLoop()
	}()

	now := m.clock.Now()
	cost := e.nextCost()
	resID, err := m.ledger.Admit(e.tenant, cost)
	if err != nil {
		// Turned away before any packet: the decision is itself a data
		// point (a series full of deferrals says the fleet cap is the
		// binding constraint), and a deferral reschedules at the
		// ledger's retry hint rather than the nominal interval.
		m.store.appendAt(e.key, e.t.Name, e.d.Name, e.tenant, Point{At: now, Err: err.Error()})
		var ref *Refusal
		if errors.As(err, &ref) && ref.RetryAfter > 0 {
			next = now.Add(ref.RetryAfter)
		} else {
			next = e.nextAt()
		}
		return
	}

	rep, trueBw, err := m.execute(e, cost)
	var actual Cost
	if rep != nil {
		actual = Cost{Streams: rep.Streams, Packets: rep.Packets, Bytes: rep.ProbeBytes}
	}
	m.ledger.Commit(resID, actual)

	ran, failed = true, err != nil
	p := Point{At: now, True: trueBw}
	if err != nil {
		p.Err = err.Error()
		if errors.Is(err, core.ErrBudget) {
			e.doubleCost()
		}
	} else {
		p.Point, p.Low, p.High = rep.Point, rep.Low, rep.High
		p.Streams, p.Packets = rep.Streams, rep.Packets
		p.ProbeBytes, p.Elapsed = rep.ProbeBytes, rep.Elapsed
		e.learnCost(actual)
	}
	m.store.appendAt(e.key, e.t.Name, e.d.Name, e.tenant, p)
	next = e.nextAt()
}

// nextAt is the entry's next due time: one interval after the loop
// took this run off the heap, jittered by a deterministic
// ±Jitter×interval draw.
func (e *entry) nextAt() time.Time {
	return e.dispatched.Add(e.interval + e.jitterSpan())
}

// jitterSpan draws the entry's next jitter offset, uniform in
// ±jitterFrac×interval from its own derived rng stream — deterministic
// per entry whatever the cross-entry goroutine interleaving.
func (e *entry) jitterSpan() time.Duration {
	if e.jitterFrac <= 0 {
		return 0
	}
	f := (e.jitter.Float64()*2 - 1) * e.jitterFrac
	return time.Duration(f * float64(e.interval))
}

// execute runs the estimator over the entry's transport. Sim targets
// probe their compiled scenario (recompiling once its horizon is
// spent) under the monitor's root context alone: virtual time has no
// socket to unblock, the reservation already bounds the run's work,
// and Close stops it at its next stream boundary. Live targets lease a
// session slot of the receiver, dialing it if vacant, with a watchdog
// that closes the transport once the run outlives RunTimeout or Close
// cancels it — the only way to unblock a probe stuck in a socket read.
func (m *Monitor) execute(e *entry, cost Cost) (*core.Report, unit.Rate, error) {
	params := e.t.Params
	params.Rand = rng.DeriveLabel(m.cfg.Seed, e.runLabel.Uint(e.runSeq))
	e.runSeq++
	params.Budget = cost.Budget() // the reservation is the run's hard budget

	if e.t.Scenario != "" {
		if err := m.ensureSim(e); err != nil {
			return nil, 0, err
		}
		if params.Capacity == 0 {
			params.Capacity = e.sim.Capacity
		}
		rep, err := registry.Estimate(m.root, e.d.Name, params, e.sim.Transport)
		return rep, e.sim.TrueAvailBw, err
	}

	ctx, cancel := context.WithTimeout(m.root, m.cfg.RunTimeout)
	defer cancel()
	slots, err := m.leaseFor(e.t.Addr)
	if err != nil {
		return nil, 0, err
	}
	var tr *livenet.Transport
	select {
	case tr = <-slots:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	if tr == nil {
		if tr, err = livenet.Dial(e.t.Addr); err != nil {
			slots <- nil // still vacant: the next run redials
			return nil, 0, err
		}
	}
	watchdog := context.AfterFunc(ctx, tr.Close)
	rep, err := registry.Estimate(ctx, e.d.Name, params, tr)
	healthy := watchdog()
	if err != nil && !errors.Is(err, core.ErrBudget) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		// A transport-level failure may have desynchronized the control
		// channel; discard the session rather than risk misaligned
		// replies. Budget and cancellation errors happen at stream
		// boundaries and leave the channel clean.
		healthy = false
	}
	if !healthy || tr.Broken() {
		tr.Close()
		tr = nil
		m.mu.Lock()
		m.redials++
		m.mu.Unlock()
	}
	slots <- tr
	return rep, 0, err
}

// ensureSim compiles the entry's scenario on first use and recompiles
// it — under a fresh derived seed, so the new cross-traffic sample
// path is independent but reproducible — once probing has consumed
// three quarters of its horizon. Consecutive runs between recompiles
// observe consecutive slices of one cross-traffic process, exactly how
// a periodic live prober samples a real path.
func (m *Monitor) ensureSim(e *entry) error {
	if e.sim != nil {
		if e.sim.Transport.Now() < e.sim.Spec.Horizon*3/4 {
			return nil
		}
		e.sim = nil
		m.mu.Lock()
		m.recompiles++
		m.mu.Unlock()
	}
	seed := rng.Derive(m.cfg.Seed, fmt.Sprintf("sim/%s/epoch%d", e.key, e.simEpoch)).Uint64()
	e.simEpoch++
	cpl, err := e.sc.CompileSeeded(seed)
	if err != nil {
		return fmt.Errorf("monitor: target %q: compiling scenario %q: %w", e.t.Name, e.t.Scenario, err)
	}
	e.sim = cpl
	return nil
}

// leaseFor returns the session slots of a live receiver address,
// PoolSize of them, each holding an idle transport or nil for a
// session not yet dialed. A run holds one slot for its whole length,
// so at most PoolSize runs probe one receiver at once.
func (m *Monitor) leaseFor(addr string) (chan *livenet.Transport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("monitor: closed")
	}
	slots := m.leases[addr]
	if slots == nil {
		slots = make(chan *livenet.Transport, m.cfg.PoolSize)
		for i := 0; i < m.cfg.PoolSize; i++ {
			slots <- nil
		}
		m.leases[addr] = slots
	}
	return slots, nil
}

// entryHeap orders queued entries by due time for container/heap.
type entryHeap []*entry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h entryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x any)        { *h = append(*h, x.(*entry)) }

func (h *entryHeap) Pop() any {
	old := *h
	n := len(old) - 1
	e := old[n]
	old[n] = nil
	*h = old[:n]
	return e
}
