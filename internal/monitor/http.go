package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"abw/internal/livenet"
)

// SeriesInfo is one series' listing entry: identity plus rollup, the
// shape /api/series returns.
type SeriesInfo struct {
	Target  string `json:"target"`
	Tool    string `json:"tool"`
	Tenant  string `json:"tenant"`
	Len     int    `json:"len"`
	Evicted uint64 `json:"evicted,omitempty"`
	Rollup  Rollup `json:"rollup"`
}

// Status is the /api/status document.
type Status struct {
	Time     time.Time      `json:"time"`
	Monitor  Stats          `json:"monitor"`
	Ledger   LedgerStats    `json:"ledger"`
	Receiver *livenet.Stats `json:"receiver,omitempty"`
}

// Status assembles the full status document (also used by the CLI's
// final report, not just HTTP).
func (m *Monitor) Status() Status {
	led := m.ledger.Stats()
	st := Status{
		Time:    m.clock.Now(),
		Monitor: m.statsWith(led),
		Ledger:  led,
	}
	if m.cfg.Receiver != nil {
		rs := m.cfg.Receiver.Stats()
		st.Receiver = &rs
	}
	return st
}

// Handler returns the monitor's HTTP surface:
//
//	GET /api/status              scheduler + ledger (+ receiver) counters
//	GET /api/series              every series' identity and rollup
//	GET /api/series/<target>/<tool>?n=N   the series' last N points
//	GET /metrics                 Prometheus text exposition
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.Status())
	})
	mux.HandleFunc("/api/series", func(w http.ResponseWriter, r *http.Request) {
		all := m.store.All()
		infos := make([]SeriesInfo, 0, len(all))
		for _, s := range all {
			infos = append(infos, SeriesInfo{
				Target: s.Target, Tool: s.Tool, Tenant: s.Tenant,
				Len: s.Len(), Evicted: s.Evicted(), Rollup: s.Rollup(),
			})
		}
		sort.Slice(infos, func(i, j int) bool {
			if infos[i].Target != infos[j].Target {
				return infos[i].Target < infos[j].Target
			}
			return infos[i].Tool < infos[j].Tool
		})
		writeJSON(w, infos)
	})
	mux.HandleFunc("/api/series/", func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/api/series/")
		s, ok := m.store.Lookup(key)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown series %q", key), http.StatusNotFound)
			return
		}
		n := 0
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, fmt.Sprintf("bad n %q", q), http.StatusBadRequest)
				return
			}
			n = v
		}
		writeJSON(w, struct {
			SeriesInfo
			Points []Point `json:"points"`
		}{
			SeriesInfo: SeriesInfo{
				Target: s.Target, Tool: s.Tool, Tenant: s.Tenant,
				Len: s.Len(), Evicted: s.Evicted(), Rollup: s.Rollup(),
			},
			Points: s.Last(n),
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.writeMetrics(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, "abwmonitor: /api/status /api/series /api/series/<target>/<tool> /metrics\n")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// writeMetrics renders the Prometheus text exposition format by hand —
// the format is three line shapes (# HELP, # TYPE, sample), not worth a
// dependency. Every value comes from one snapshot: one ledger reading,
// and one rollup per series that all of that series' gauges share.
func (m *Monitor) writeMetrics(w io.Writer) {
	led := m.ledger.Stats()
	st := m.statsWith(led)

	g := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, fmtFloat(v))
	}
	c := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, fmtFloat(v))
	}

	g("abw_monitor_targets", "Scheduled measurement assignments.", float64(st.Targets))
	g("abw_monitor_scheduled", "Sessions currently scheduled: queued or running.", float64(st.Scheduled))
	g("abw_monitor_active", "Runs the workers hold, plus at most one being handed to them.", float64(st.Active))
	head(w, "abw_monitor_runs_total", "Completed estimation runs by result.", "counter")
	sample(w, "abw_monitor_runs_total", lbl{"result", "ok"}, float64(st.RunsOK))
	sample(w, "abw_monitor_runs_total", lbl{"result", "err"}, float64(st.RunsErr))
	head(w, "abw_monitor_admission_total", "Ledger admission decisions.", "counter")
	sample(w, "abw_monitor_admission_total", lbl{"decision", "admitted"}, float64(led.Admitted))
	sample(w, "abw_monitor_admission_total", lbl{"decision", "deferred"}, float64(led.Deferred))
	sample(w, "abw_monitor_admission_total", lbl{"decision", "refused"}, float64(led.Refused))
	c("abw_monitor_overruns_total", "Runs that finished after their next slot was due.", float64(st.Overruns))
	c("abw_monitor_sim_recompiles_total", "Sim scenarios recompiled after horizon exhaustion.", float64(st.Recompiles))
	c("abw_monitor_redials_total", "Live transports discarded as broken.", float64(st.Redials))
	c("abw_monitor_points_total", "Series points appended.", float64(st.Points))
	c("abw_monitor_timer_rearms_total", "Scheduler timer re-arms to sleep until the next due run.", float64(st.TimerRearms))
	c("abw_monitor_idle_wakeups_total", "Scheduler wake-ups that found no run due.", float64(st.IdleWakeups))
	g("abw_monitor_budget_streams", "Probing streams charged against the fleet budget.", float64(led.Streams))
	g("abw_monitor_budget_packets", "Probe packets charged against the fleet budget.", float64(led.Packets))
	g("abw_monitor_budget_bytes", "Probe bytes charged against the fleet budget.", float64(led.Bytes))
	g("abw_monitor_window_bytes", "Probe bytes charged inside the current rate window.", float64(led.WindowBytes))
	if led.WindowCap > 0 {
		g("abw_monitor_window_cap_bytes", "Most probe bytes the rate window may hold.", float64(led.WindowCap))
	}
	if len(led.Tenants) > 0 {
		head(w, "abw_monitor_tenant_admissions_total", "Per-tenant admission decisions.", "counter")
		for _, ts := range led.Tenants {
			sample(w, "abw_monitor_tenant_admissions_total", lbl{"tenant", ts.Tenant}, float64(ts.Admitted), lbl{"decision", "admitted"})
			sample(w, "abw_monitor_tenant_admissions_total", lbl{"tenant", ts.Tenant}, float64(ts.Deferred), lbl{"decision", "deferred"})
			sample(w, "abw_monitor_tenant_admissions_total", lbl{"tenant", ts.Tenant}, float64(ts.Refused), lbl{"decision", "refused"})
		}
	}

	all := m.store.All()
	if len(all) > 0 {
		rollups := make([]Rollup, len(all))
		for i, s := range all {
			rollups[i] = s.Rollup()
		}
		gauge := func(name, help string, okOnly bool, v func(Rollup) float64) {
			head(w, name, help, "gauge")
			for i, s := range all {
				if r := rollups[i]; !okOnly || r.Count != r.Errors {
					sample(w, name, lbl{"target", s.Target}, v(r), lbl{"tool", s.Tool})
				}
			}
		}
		gauge("abw_monitor_estimate_bps", "Most recent successful avail-bw estimate.", true,
			func(r Rollup) float64 { return float64(r.Last) })
		gauge("abw_monitor_variation_low_bps", "Lowest variation-range bound in the buffered window.", true,
			func(r Rollup) float64 { return float64(r.VarLow) })
		gauge("abw_monitor_variation_high_bps", "Highest variation-range bound in the buffered window.", true,
			func(r Rollup) float64 { return float64(r.VarHigh) })
		gauge("abw_monitor_series_errors", "Buffered points carrying an error.", false,
			func(r Rollup) float64 { return float64(r.Errors) })
	}

	if m.cfg.Receiver != nil {
		rs := m.cfg.Receiver.Stats()
		g("abw_receiver_active_sessions", "Control connections currently open.", float64(rs.ActiveSessions))
		g("abw_receiver_active_streams", "Streams opened but not yet reported or reaped.", float64(rs.ActiveStreams))
		c("abw_receiver_sessions_total", "Sessions ever accepted.", float64(rs.Sessions))
		c("abw_receiver_streams_total", "Streams ever opened.", float64(rs.Streams))
		c("abw_receiver_packets_total", "Probe packets stamped into a stream.", float64(rs.Packets))
		c("abw_receiver_drops_total", "Datagrams discarded.", float64(rs.Drops))
		c("abw_receiver_refused_total", "Sessions refused at the session limit.", float64(rs.Refused))
		c("abw_receiver_ingest_batches_total", "Ingest batches drained from the probe socket.", float64(rs.Batches))
		g("abw_receiver_rcvbuf_bytes", "Receive buffer the kernel granted on the probe socket.", float64(rs.RcvBufBytes))
		kts := 0.0
		if rs.KernelTimestamps {
			kts = 1
		}
		g("abw_receiver_kernel_timestamps", "1 when arrival stamps come from kernel RX timestamps.", kts)
	}
}

type lbl struct{ k, v string }

func head(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one labeled sample line; labels are sorted by key for a
// stable exposition.
func sample(w io.Writer, name string, first lbl, v float64, rest ...lbl) {
	labels := append([]lbl{first}, rest...)
	sort.Slice(labels, func(i, j int) bool { return labels[i].k < labels[j].k })
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.k + `="` + labelEscaper.Replace(l.v) + `"`
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, strings.Join(parts, ","), fmtFloat(v))
}

// labelEscaper escapes a label value the way the exposition format
// defines: backslash, double quote and newline, and nothing else. Any
// other byte, a tab or a non-ASCII rune included, is written raw.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
