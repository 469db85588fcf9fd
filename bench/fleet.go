package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"abw/internal/core"
	"abw/internal/monitor"
	"abw/internal/tools/registry"
	"abw/internal/unit"
)

// fleetBudget is set so the ledger's byte cap is enforced on every
// admit and never reached: a run is ~3 kB and a run of this benchmark
// makes under a million of them.
const fleetBudget = unit.Bytes(1 << 40)

// runFleet runs the monitor over a fake clock: every cycle advances 11
// fake seconds, which makes each of the targets due exactly once
// (interval 10 s, jitter 10 %), and waits for their points. Writes
// (store appends) run beside reads (a /metrics and /api/series scrape
// every tenth cycle), and the simulator is used a third way: long-lived
// compiled paths advanced slice by slice from many goroutines.
func runFleet(o opts, res *result) error {
	n, scrapeEvery, warm := 1000, 10, 3
	if o.short {
		n, scrapeEvery, warm = 200, 5, 1
	}
	scenarios := []string{"canonical", "bursty", "poisson", "mice"}
	targets := make([]monitor.Target, n)
	for i := range targets {
		targets[i] = monitor.Target{
			Name:     fmt.Sprintf("edge-%04d", i),
			Tenant:   fmt.Sprintf("tenant-%d", i%7),
			Tool:     "spruce",
			Scenario: scenarios[i%len(scenarios)],
			Params:   registry.Params{Repeat: 1},
			EstBytes: 8_000,
		}
	}
	clk := monitor.NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	m, err := monitor.New(monitor.Config{
		Targets:       targets,
		Interval:      10 * time.Second,
		Seed:          o.seed,
		MaxConcurrent: 64,
		History:       64,
		Budget:        core.Budget{MaxBytes: fleetBudget},
		Clock:         clk,
	})
	if err != nil {
		return err
	}
	m.Start()
	defer m.Close()
	handler := m.Handler()

	nudges := 0
	// cycle advances the fake clock and waits until every target has
	// appended its point. The scheduler reads Now() and then re-arms its
	// timer relative to a later Now(), so an Advance landing in between
	// slides the deadline past this cycle (see README.md). After 5 ms
	// without progress and nothing in flight, one more fake second gets
	// past it.
	cycle := func(c int) error {
		clk.Advance(11 * time.Second)
		want := uint64(n * c)
		last, lastAt := m.Store().Appends(), time.Now()
		for deadline := lastAt.Add(30 * time.Second); ; {
			got := m.Store().Appends()
			if got >= want {
				return nil
			}
			now := time.Now()
			switch {
			case now.After(deadline):
				return fmt.Errorf("fleet: cycle %d stuck at %d of %d points", c, got, want)
			case got != last:
				last, lastAt = got, now
			case now.Sub(lastAt) > 5*time.Millisecond && m.Stats().Active == 0:
				clk.Advance(time.Second)
				nudges++
				lastAt = now
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	get := func(parent, op int, name, url string) (*httptest.ResponseRecorder, time.Duration) {
		id := o.tr.begin(name, parent, op)
		t0 := time.Now()
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
		d := time.Since(t0)
		o.tr.end(id)
		return w, d
	}

	c := 0
	for ; c < warm; c++ { // first cycle compiles every target's scenario
		if err := cycle(c + 1); err != nil {
			return err
		}
	}
	ok0 := m.Stats().RunsOK
	root := o.tr.begin("fleet", -1, 0)
	var cycleMs, scrapeMs, metricsMs, seriesMs []float64
	var metricsBody, seriesBody string
	var cycles units
	start := time.Now()
	more := func() bool {
		if o.short {
			return len(cycles.rate) < 10
		}
		return time.Since(start).Seconds() < o.seconds
	}
	for len(cycles.rate) == 0 || more() {
		c++
		cid := o.tr.begin("cycle", root, c)
		cpu0, t0 := cpuSeconds(), time.Now()
		err := cycle(c)
		d := time.Since(t0)
		cycles.add(n, d, cpuSeconds()-cpu0)
		cycleMs = append(cycleMs, ms(d))
		if err == nil && c%scrapeEvery == 0 {
			sid := o.tr.begin("scrape", cid, c)
			mw, md := get(sid, c, "scrape.metrics", "/metrics")
			sw, sd := get(sid, c, "scrape.series", "/api/series")
			o.tr.end(sid)
			res.attempted++
			if mw.Code != http.StatusOK || sw.Code != http.StatusOK {
				res.fail(1, "fleet: scrape returned %d / %d", mw.Code, sw.Code)
			}
			scrapeMs = append(scrapeMs, ms(md+sd))
			metricsMs = append(metricsMs, ms(md))
			seriesMs = append(seriesMs, ms(sd))
			metricsBody, seriesBody = mw.Body.String(), sw.Body.String()
		}
		o.tr.end(cid)
		if err != nil {
			return err
		}
	}
	wall := time.Since(start).Seconds()
	o.tr.end(root)

	st := m.Stats()
	runs := float64(st.RunsOK - ok0)
	res.attempted += int(st.RunsOK-ok0) + int(st.RunsErr)
	if st.RunsErr != 0 {
		res.fail(int(st.RunsErr), "fleet: %d runs failed", st.RunsErr)
	}
	if led := m.Ledger().Stats(); led.Bytes > fleetBudget || led.Refused+led.Deferred != 0 {
		res.fail(1, "fleet: ledger charged %d bytes against a cap of %d, refused %d, deferred %d",
			led.Bytes, fleetBudget, led.Refused, led.Deferred)
	}
	if got := len(m.Store().All()); got != n {
		res.fail(1, "fleet: store holds %d series, want %d", got, n)
	}
	if len(scrapeMs) == 0 {
		return fmt.Errorf("fleet: no scrape completed (ran %d cycles)", c)
	}
	if err := checkMetricsText(metricsBody); err != nil {
		res.fail(1, "fleet: /metrics: %v", err)
	}
	var infos []monitor.SeriesInfo
	if err := json.Unmarshal([]byte(seriesBody), &infos); err != nil || len(infos) != n {
		res.fail(1, "fleet: /api/series lists %d series, want %d (%v)", len(infos), n, err)
	}

	t0 := time.Now()
	sid := o.tr.begin("snapshot", -1, c)
	err = m.Store().WriteSnapshot(filepath.Join(o.out, "fleet-snapshot.json"), clk.Now())
	o.tr.end(sid)
	snapshot := time.Since(t0)
	res.attempted++
	if err != nil {
		res.fail(1, "fleet: snapshot: %v", err)
	}

	cycles.report(res, "cycles")
	res.latency(cycleMs)
	res.note("fleet: %d targets, %.0f runs in %.2f s (%.0f runs/s wall, scrapes included), %d scrapes, %d nudges, RunsErr %d",
		n, runs, wall, runs/wall, len(scrapeMs), nudges, st.RunsErr)

	res.layer["monitor.scrape_p50_ms"] = median(scrapeMs)
	res.layer["monitor.metrics_render_ms"] = median(metricsMs)
	res.layer["monitor.series_render_ms"] = median(seriesMs)
	res.layer["monitor.snapshot_ms"] = ms(snapshot)
	res.layer["monitor.cycles"] = float64(len(cycles.rate))
	res.layer["monitor.overruns"] = float64(st.Overruns)
	res.layer["monitor.recompiles"] = float64(st.Recompiles)
	res.layer["monitor.nudges"] = float64(nudges)
	return nil
}

var promName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// checkMetricsText parses a Prometheus text exposition: every line is a
// comment or "name[{labels}] value" with a numeric value.
func checkMetricsText(body string) error {
	samples := 0
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return fmt.Errorf("no value in line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			return fmt.Errorf("bad value in line %q", line)
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			if !strings.HasSuffix(name, "}") {
				return fmt.Errorf("unclosed labels in line %q", line)
			}
			name = name[:j]
		}
		if !promName.MatchString(name) {
			return fmt.Errorf("bad metric name in line %q", line)
		}
		samples++
	}
	if samples == 0 {
		return fmt.Errorf("no samples")
	}
	return sc.Err()
}
