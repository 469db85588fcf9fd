package monitor

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"abw/internal/livenet"
	"abw/internal/tools/registry"
)

// newServedMonitor builds a monitor with two sim targets and an
// attached (idle) receiver, runs one cycle, and serves its handler.
func newServedMonitor(t *testing.T) (*Monitor, *FakeClock, *httptest.Server) {
	t.Helper()
	r, err := livenet.ListenReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	clk := NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	m, err := New(Config{
		Targets: []Target{
			// Repeat 8: enough Poisson pairs that the estimate is reliably
			// positive (2 pairs can legitimately round down to 0 bps).
			{Name: "edge-a", Tenant: "acme", Tool: "spruce", Scenario: "canonical", Params: registry.Params{Repeat: 8}},
			{Name: "edge-b", Tenant: "acme", Tool: "delphi", Scenario: "bursty", Params: registry.Params{Repeat: 2, StreamLen: 5}},
		},
		Interval: 10 * time.Second,
		Seed:     5,
		Clock:    clk,
		Receiver: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	drain(t, m, clk, 11*time.Second, 2)
	t.Cleanup(m.Close)
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	return m, clk, srv
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestHTTPStatusAndSeries: the JSON surface exposes scheduler counters,
// ledger accounting, receiver stats, series listings, and per-series
// points.
func TestHTTPStatusAndSeries(t *testing.T) {
	_, _, srv := newServedMonitor(t)

	code, body := get(t, srv.URL+"/api/status")
	if code != http.StatusOK {
		t.Fatalf("/api/status = %d", code)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/api/status is not JSON: %v", err)
	}
	if st.Monitor.Targets != 2 || st.Monitor.RunsOK != 2 {
		t.Errorf("status counters = %d targets / %d ok, want 2/2", st.Monitor.Targets, st.Monitor.RunsOK)
	}
	if st.Ledger.Admitted != 2 {
		t.Errorf("ledger admitted = %d, want 2", st.Ledger.Admitted)
	}
	if st.Receiver == nil {
		t.Error("status omits the attached receiver's stats")
	}

	code, body = get(t, srv.URL+"/api/series")
	if code != http.StatusOK {
		t.Fatalf("/api/series = %d", code)
	}
	var infos []SeriesInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("/api/series is not JSON: %v", err)
	}
	if len(infos) != 2 || infos[0].Target != "edge-a" || infos[1].Target != "edge-b" {
		t.Fatalf("series listing = %+v, want edge-a then edge-b", infos)
	}
	if infos[0].Rollup.Count != 1 {
		t.Errorf("edge-a rollup count = %d, want 1", infos[0].Rollup.Count)
	}

	code, body = get(t, srv.URL+"/api/series/edge-a/spruce?n=1")
	if code != http.StatusOK {
		t.Fatalf("/api/series/edge-a/spruce = %d: %s", code, body)
	}
	var detail struct {
		SeriesInfo
		Points []Point `json:"points"`
	}
	if err := json.Unmarshal(body, &detail); err != nil {
		t.Fatalf("series detail is not JSON: %v", err)
	}
	if len(detail.Points) != 1 || detail.Points[0].Point <= 0 {
		t.Fatalf("series detail points = %+v, want 1 successful estimate", detail.Points)
	}

	if code, _ := get(t, srv.URL+"/api/series/nope/spruce"); code != http.StatusNotFound {
		t.Errorf("unknown series = %d, want 404", code)
	}
	if code, _ := get(t, srv.URL+"/api/series/edge-a/spruce?n=potato"); code != http.StatusBadRequest {
		t.Errorf("bad n = %d, want 400", code)
	}
}

// TestHTTPMetricsLabelsRaw: a label value is written raw except for
// backslash, double quote and newline, so a tab or a non-ASCII rune in
// a target or tenant name (abwmonitor takes both verbatim from its
// command line) reaches a standard parser intact; a name that is not
// valid UTF-8 cannot be exposed at all, so New refuses it.
func TestHTTPMetricsLabelsRaw(t *testing.T) {
	clk := NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	m, err := New(Config{
		Targets:  []Target{{Name: "edge\tb", Tenant: "caf\u00a0", Tool: "spruce", Scenario: "canonical", Params: registry.Params{Repeat: 8}}},
		Interval: 10 * time.Second,
		Seed:     5,
		Clock:    clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	drain(t, m, clk, 11*time.Second, 1)
	t.Cleanup(m.Close)
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	_, body := get(t, srv.URL+"/metrics")
	for _, want := range []string{`target="edge` + "\t" + `b"`, `tenant="caf` + "\u00a0" + `"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics has no label %q", want)
		}
	}
	for _, bad := range []Target{
		{Name: "edge\xff", Tool: "spruce", Scenario: "canonical"},
		{Name: "edge", Tenant: "caf\xe9", Tool: "spruce", Scenario: "canonical"},
	} {
		if _, err := New(Config{Targets: []Target{bad}, Interval: time.Second, Clock: clk}); err == nil {
			t.Errorf("New accepted name %q, tenant %q", bad.Name, bad.Tenant)
		}
	}
}

// TestHTTPMetricsParseable holds /metrics to the Prometheus text
// exposition format: every line is a comment or `name{labels} value`
// with a float-parsable value, HELP/TYPE precede their samples, and the
// load-bearing metrics are present; a later scrape reads no counter
// lower.
func TestHTTPMetricsParseable(t *testing.T) {
	m, clk, srv := newServedMonitor(t)
	samples := scrapeMetrics(t, srv.URL)

	for metric, want := range map[string]float64{
		`abw_monitor_targets`:                              2,
		`abw_monitor_runs_total{result="ok"}`:              2,
		`abw_monitor_runs_total{result="err"}`:             0,
		`abw_monitor_admission_total{decision="admitted"}`: 2,
		`abw_receiver_active_sessions`:                     0,
	} {
		got, ok := samples[metric]
		if !ok {
			t.Errorf("metric %s missing", metric)
		} else if got != want {
			t.Errorf("metric %s = %g, want %g", metric, got, want)
		}
	}
	if v, ok := samples[`abw_monitor_estimate_bps{target="edge-a",tool="spruce"}`]; !ok || v <= 0 {
		t.Errorf("per-series estimate gauge missing or non-positive (%g)", v)
	}
	for _, name := range []string{"abw_monitor_timer_rearms_total", "abw_monitor_idle_wakeups_total"} {
		if _, ok := samples[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}

	drain(t, m, clk, 11*time.Second, 4)
	again := scrapeMetrics(t, srv.URL)
	for id, v := range samples {
		if name, _, _ := strings.Cut(id, "{"); strings.HasSuffix(name, "_total") && again[id] < v {
			t.Errorf("counter %s fell from %g to %g between scrapes", id, v, again[id])
		}
	}
	if r := "abw_monitor_timer_rearms_total"; again[r] <= samples[r] {
		t.Errorf("%s stayed at %g over a cycle that went idle", r, again[r])
	}
}

// scrapeMetrics GETs /metrics, parses it as the exposition format and
// returns each sample's value by its name and label set.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}

	typed := map[string]bool{}
	samples := map[string]float64{}
	for i, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: blank line in exposition", i+1)
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 || (f[3] != "gauge" && f[3] != "counter") {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			typed[f[2]] = true
			continue
		}
		// Sample: name or name{labels}, space, float.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", i+1, line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("line %d: unparsable value in %q: %v", i+1, line, err)
		}
		id := line[:sp]
		name := id
		if b := strings.IndexByte(id, '{'); b >= 0 {
			if !strings.HasSuffix(id, "}") {
				t.Fatalf("line %d: unterminated label set: %q", i+1, line)
			}
			name = id[:b]
			for _, pair := range strings.Split(id[b+1:len(id)-1], ",") {
				k, v, ok := strings.Cut(pair, "=")
				if !ok || k == "" || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					t.Fatalf("line %d: malformed label %q", i+1, pair)
				}
				// The format defines exactly three escapes: \\, \" and \n.
				for j := 1; j < len(v)-1; j++ {
					if v[j] == '\\' {
						j++
						if j == len(v)-1 || !strings.ContainsRune(`\"n`, rune(v[j])) {
							t.Fatalf("line %d: label %q uses an escape the exposition format does not define", i+1, pair)
						}
					}
				}
			}
		}
		if !typed[name] {
			t.Fatalf("line %d: sample %q precedes its TYPE", i+1, name)
		}
		samples[id] = val
	}

	return samples
}

// TestHTTPMetricsGaugesShareOneRollup: a series' estimate, variation
// and error gauges are one Rollup of it, and a series with no successful
// point exposes only its error count.
func TestHTTPMetricsGaugesShareOneRollup(t *testing.T) {
	m, clk, srv := newServedMonitor(t)
	drain(t, m, clk, 11*time.Second, 4)
	m.Store().Append("edge-a", "spruce", "acme", Point{At: clk.Now(), Err: "refused"})
	m.Store().Append("ghost", "spruce", "acme", Point{At: clk.Now(), Err: "refused"})
	samples := scrapeMetrics(t, srv.URL)

	for _, s := range m.Store().All() {
		r := s.Rollup()
		id := func(name string) string { return name + `{target="` + s.Target + `",tool="` + s.Tool + `"}` }
		want := map[string]float64{"abw_monitor_series_errors": float64(r.Errors)}
		if r.Count != r.Errors {
			want["abw_monitor_estimate_bps"] = float64(r.Last)
			want["abw_monitor_variation_low_bps"] = float64(r.VarLow)
			want["abw_monitor_variation_high_bps"] = float64(r.VarHigh)
		}
		for _, name := range []string{"abw_monitor_estimate_bps", "abw_monitor_variation_low_bps",
			"abw_monitor_variation_high_bps", "abw_monitor_series_errors"} {
			got, ok := samples[id(name)]
			w, exposed := want[name]
			switch {
			case ok != exposed:
				t.Errorf("%s: exposed %v, want %v", id(name), ok, exposed)
			case ok && got != w:
				t.Errorf("%s = %g, rollup says %g", id(name), got, w)
			}
		}
	}
	if got := samples[`abw_monitor_series_errors{target="edge-a",tool="spruce"}`]; got != 1 {
		t.Errorf("edge-a errors gauge %g, want the 1 appended", got)
	}
}

// TestReceiverWireShape pins the receiver counters' JSON: the object
// /api/status serves under "receiver" and each abwprobe -stats-json
// line carry the same twelve keys in the same order.
func TestReceiverWireShape(t *testing.T) {
	const want = `{"active_sessions":1,"active_streams":2,"sessions":3,"streams":4,"packets":5,"drops":6,"size_mismatches":7,"source_mismatches":8,"refused":9,"batches":10,"rcvbuf_bytes":11,"kernel_timestamps":true}`
	st := livenet.Stats{ActiveSessions: 1, ActiveStreams: 2, Sessions: 3, Streams: 4, Packets: 5, Drops: 6,
		SizeMismatches: 7, SourceMismatches: 8, Refused: 9, Batches: 10, RcvBufBytes: 11, KernelTimestamps: true}
	b, err := json.Marshal(Status{Receiver: &st})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Receiver json.RawMessage `json:"receiver"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if string(doc.Receiver) != want {
		t.Errorf("/api/status receiver:\n %s\nwant\n %s", doc.Receiver, want)
	}
	var line strings.Builder
	if err := json.NewEncoder(&line).Encode(st); err != nil {
		t.Fatal(err)
	}
	if line.String() != want+"\n" {
		t.Errorf("-stats-json line:\n %q\nwant\n %q", line.String(), want+"\n")
	}
}
