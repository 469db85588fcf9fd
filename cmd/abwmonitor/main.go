// Command abwmonitor runs the continuous avail-bw monitoring service:
// periodic estimates for a fleet of targets, ring-buffered time series
// with variation-range rollups, a fleet-wide admission-controlled
// probing budget, and an HTTP surface (JSON + Prometheus /metrics).
//
// Targets are `[tenant/]name=tool@dest` specs. In -mode sim dest is a
// scenario-catalog name (see abwprobe -scenarios) and the whole service
// is hermetic — no sockets, exact ground truth per point. In -mode live
// dest is a receiver's control address (abwprobe -mode recv on the far
// end), or the literal `local` for the in-process receiver started by
// -recv.
//
// Hermetic fleet, ground truth alongside every estimate:
//
//	abwmonitor -mode sim -target edge-a=spruce@canonical -target acme/edge-b=pathload@bursty
//
// Load test: 1000 simulated sessions, metrics scrapeable, stop after 30s:
//
//	abwmonitor -mode sim -fanout 1000 -tool spruce -interval 5s -for 30s -http 127.0.0.1:9877
//
// Live, with the fleet's probing held under 5 Mbps aggregate:
//
//	abwmonitor -mode live -target nyc=spruce@probe-nyc:9876 -capacity 100 -max-bps 5
//
// On shutdown (interrupt or -for expiry) the final status document —
// the same shape /api/status serves — is printed as JSON on stdout.
// Exit codes: 0 on clean shutdown, 1 on runtime failure, 2 on usage
// errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"abw"
)

const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
)

// targetSpecs collects repeated -target flags.
type targetSpecs []string

func (t *targetSpecs) String() string     { return strings.Join(*t, ",") }
func (t *targetSpecs) Set(v string) error { *t = append(*t, v); return nil }

func main() {
	var specs targetSpecs
	flag.Var(&specs, "target", "target spec `[tenant/]name=tool@dest` (repeatable)")
	var (
		mode        = flag.String("mode", "", "sim (dest = scenario name) or live (dest = receiver address)")
		fanout      = flag.Int("fanout", 0, "sim: add N generated targets round-robin over the scenario catalog")
		tool        = flag.String("tool", "spruce", "tool for -fanout targets")
		interval    = flag.Duration("interval", 10*time.Second, "time between a target's runs")
		jitter      = flag.Float64("jitter", 0.1, "per-target schedule jitter as a fraction of the interval [0, 0.5]")
		seed        = flag.Uint64("seed", uint64(time.Now().UnixNano()), "random seed (jitter, tool randomness, sim traffic)")
		concurrency = flag.Int("concurrency", 0, "max estimation runs in flight (0 = default 16)")
		history     = flag.Int("history", 0, "points kept per series (0 = default 512)")
		httpAddr    = flag.String("http", "127.0.0.1:9877", "HTTP address for /api and /metrics (empty = no HTTP)")
		snapshot    = flag.String("snapshot", "", "persist the series store to this file and restore from it at startup")
		snapEvery   = flag.Duration("snapshot-every", time.Minute, "snapshot cadence when -snapshot is set")
		retention   = flag.Duration("retention", 0, "drop points older than this before each snapshot (0 = keep all)")
		runFor      = flag.Duration("for", 0, "stop after this long (0 = run until interrupted)")
		recvAddr    = flag.String("recv", "", "live: also run an in-process receiver here; targets may use dest `local`")
		maxSess     = flag.Int("max-sessions", 0, "in-process receiver: max concurrent sessions (0 = default 64)")
		runTimeout  = flag.Duration("run-timeout", 0, "wall-time cap per live estimation run (0 = default 2m)")
		poolSize    = flag.Int("pool", 0, "at most this many sessions, and concurrent live runs, per receiver (0 = min(4, -concurrency))")
		// Tool parameters, applied to every target (zero = tool default).
		capMbps  = flag.Float64("capacity", 0, "tight-link capacity (Mbps), for direct-probing tools on live targets")
		pktSize  = flag.Int("pktsize", 0, "probe packet size in bytes")
		length   = flag.Int("len", 0, "packets per probing stream")
		repeat   = flag.Int("repeat", 0, "streams per rate / trains / chirps / pairs")
		rounds   = flag.Int("rounds", 0, "max probing-rate search rounds")
		estBytes = flag.Int64("est-bytes", 0, "admission hint: projected probe bytes per run before actuals are known")
		// Fleet admission: lifetime budget plus aggregate rate cap.
		maxBytes   = flag.Int64("max-bytes", 0, "fleet lifetime probing budget in bytes (0 = unlimited)")
		maxStreams = flag.Int("max-streams", 0, "fleet lifetime probing budget in streams (0 = unlimited)")
		maxPackets = flag.Int("max-packets", 0, "fleet lifetime probing budget in packets (0 = unlimited)")
		maxMbps    = flag.Float64("max-bps", 0, "fleet aggregate probe-rate cap in Mbps (0 = unlimited)")
		rateWin    = flag.Duration("rate-window", 0, "sliding window for -max-bps (0 = default 1s)")
	)
	flag.Parse()
	if *mode != "sim" && *mode != "live" {
		usageErr("pick -mode sim or -mode live")
	}
	if flag.NArg() > 0 {
		usageErr("unexpected argument %q (targets are given with -target)", flag.Arg(0))
	}

	// Written so that NaN fails: it passes every `<= 0` test.
	finiteRate := func(name string, v float64) {
		if v != 0 && !(v > 0 && !math.IsInf(v, 1)) {
			usageErr("-%s must be finite and positive (got %g)", name, v)
		}
	}
	finiteRate("capacity", *capMbps)
	finiteRate("max-bps", *maxMbps)

	params := abw.Params{
		Capacity:  abw.Rate(*capMbps * 1e6),
		PktSize:   abw.Bytes(*pktSize),
		StreamLen: *length,
		Repeat:    *repeat,
		MaxRounds: *rounds,
	}
	targets := make([]abw.MonitorTarget, 0, len(specs)+*fanout)
	for _, spec := range specs {
		t, err := parseTarget(*mode, spec)
		if err != nil {
			usageErr("%v", err)
		}
		t.Params = params
		t.EstBytes = abw.Bytes(*estBytes)
		targets = append(targets, t)
	}
	if *fanout > 0 {
		if *mode != "sim" {
			usageErr("-fanout generates simulated targets; it needs -mode sim")
		}
		targets = append(targets, fanoutTargets(*fanout, *tool, params, abw.Bytes(*estBytes))...)
	}
	if len(targets) == 0 {
		usageErr("no targets: give -target specs%s", map[bool]string{true: " or -fanout N", false: ""}[*mode == "sim"])
	}

	// Optional in-process receiver: its address substitutes for the
	// literal dest `local`, and its stats ride along in /api/status.
	var recv *abw.Receiver
	if *recvAddr != "" {
		if *mode != "live" {
			usageErr("-recv runs a live receiver; it needs -mode live")
		}
		var err error
		recv, err = abw.ListenReceiverConfig(*recvAddr, abw.ReceiverConfig{MaxSessions: *maxSess})
		if err != nil {
			fatal("%v", err)
		}
		defer recv.Close()
		fmt.Fprintf(os.Stderr, "abwmonitor: receiving on %s\n", recv.Addr())
		for i := range targets {
			if targets[i].Addr == "local" {
				targets[i].Addr = recv.Addr()
			}
		}
	}

	m, err := abw.NewMonitor(abw.MonitorConfig{
		Targets:       targets,
		Interval:      *interval,
		Jitter:        *jitter,
		Seed:          *seed,
		MaxConcurrent: *concurrency,
		History:       *history,
		Budget: abw.Budget{
			MaxStreams: *maxStreams,
			MaxPackets: *maxPackets,
			MaxBytes:   abw.Bytes(*maxBytes),
		},
		MaxProbeRate:  abw.Rate(*maxMbps * 1e6),
		RateWindow:    *rateWin,
		RunTimeout:    *runTimeout,
		PoolSize:      *poolSize,
		SnapshotPath:  *snapshot,
		SnapshotEvery: *snapEvery,
		Retention:     *retention,
		Receiver:      recv,
	})
	if err != nil {
		usageErr("%v", err)
	}

	var srv *http.Server
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal("%v", err)
		}
		srv = &http.Server{Handler: m.Handler()}
		go srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "abwmonitor: serving http://%s/ (/api/status, /api/series, /metrics)\n", ln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *runFor > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runFor)
		defer cancel()
	}

	m.Start()
	fmt.Fprintf(os.Stderr, "abwmonitor: monitoring %d targets every %v (ctrl+c to stop)\n", len(targets), *interval)
	<-ctx.Done()
	stop() // a second ctrl+c during shutdown force-quits
	m.Close()
	if srv != nil {
		srv.Close()
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m.Status()); err != nil {
		fatal("encoding final status: %v", err)
	}
	os.Exit(exitOK)
}

// parseTarget turns a `[tenant/]name=tool@dest` spec into a target;
// -mode decides whether dest is a scenario name or a receiver address.
func parseTarget(mode, spec string) (abw.MonitorTarget, error) {
	var t abw.MonitorTarget
	rest := spec
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		t.Tenant, rest = rest[:i], rest[i+1:]
	}
	name, toolDest, ok := strings.Cut(rest, "=")
	if !ok {
		return t, fmt.Errorf("target %q: want [tenant/]name=tool@dest", spec)
	}
	tool, dest, ok := strings.Cut(toolDest, "@")
	if !ok || name == "" || tool == "" || dest == "" {
		return t, fmt.Errorf("target %q: want [tenant/]name=tool@dest", spec)
	}
	t.Name, t.Tool = name, tool
	if mode == "sim" {
		t.Scenario = dest
	} else {
		t.Addr = dest
	}
	return t, nil
}

// fanoutTargets generates n simulated targets spread round-robin over
// the scenario catalog and a handful of tenants — the load-test shape.
func fanoutTargets(n int, tool string, params abw.Params, est abw.Bytes) []abw.MonitorTarget {
	catalog := abw.Scenarios()
	targets := make([]abw.MonitorTarget, n)
	for i := range targets {
		targets[i] = abw.MonitorTarget{
			Name:     fmt.Sprintf("sim-%04d", i),
			Tenant:   fmt.Sprintf("load-%d", i%8),
			Tool:     tool,
			Scenario: catalog[i%len(catalog)].Name,
			Params:   params,
			EstBytes: est,
		}
	}
	return targets
}

func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "abwmonitor: "+format+"\n", args...)
	os.Exit(exitUsage)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "abwmonitor: "+format+"\n", args...)
	os.Exit(exitRuntime)
}
