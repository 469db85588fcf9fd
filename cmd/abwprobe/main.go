// Command abwprobe runs avail-bw estimation over real UDP sockets: a
// receiver on one end of the path, a sender with a choice of estimation
// technique on the other. Tools come from the estimator registry; run
// with -tools for the catalog and each tool's requirements.
//
// Receiver — a concurrent multi-session measurement server: many
// senders may probe it at once, each in its own session; -max-sessions
// bounds them and -stats controls the periodic stats line. -stats-json
// switches those lines to one-line JSON on stdout — the same wire shape
// abwmonitor serves in /api/status, so the two feed the same tooling.
// Datagrams are drained through the batched ingest fast path (recvmmsg
// with kernel RX timestamps) where the platform supports it; -rcvbuf
// requests a socket receive buffer (the kernel-granted size is logged
// and surfaced in the stats), and -ingest-fallback forces the portable
// single-read loop for A/B comparison:
//
//	abwprobe -mode recv -listen 0.0.0.0:9876 -max-sessions 128 -stats 5s
//	abwprobe -mode recv -listen 0.0.0.0:9876 -rcvbuf 4194304 -stats 5s
//	abwprobe -mode recv -listen 0.0.0.0:9876 -stats 5s -stats-json | jq .active_sessions
//
// Sender (pathload over the live path):
//
//	abwprobe -mode send -to host:9876 -tool pathload -min 1 -max 900
//
// Simulated scenario (any tool against a cataloged condition, with the
// ground truth printed alongside the estimate):
//
//	abwprobe -mode sim -scenario bursty -tool spruce
//	abwprobe -scenarios                  # the scenario catalog
//
// Direct-probing tools need -capacity, the tight-link capacity in Mbps
// — mind the paper's pitfall about measuring it with capacity tools,
// which report the narrow link. In -mode sim the scenario's true
// tight-link capacity is used when -capacity is absent.
//
// -seed s seeds the tool in -mode send. In -mode sim it compiles the
// scenario at seed s and seeds the tool with s+1, so the run is the
// matrix cell of `abwsim -exp matrix -seed s`.
//
// Exit codes: 0 on success, 1 when the estimation itself fails, 2 on
// usage errors (unknown tool, missing required flag).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"abw"
)

const (
	exitOK    = 0
	exitEstim = 1
	exitUsage = 2
)

func main() {
	var (
		mode      = flag.String("mode", "", "recv, send, or sim")
		listen    = flag.String("listen", "0.0.0.0:9876", "receiver control address")
		maxSess   = flag.Int("max-sessions", 0, "receiver: max concurrent sender sessions (0 = default 64)")
		statsDur  = flag.Duration("stats", 5*time.Second, "receiver: stats line interval on stderr (0 = off)")
		statsJSON = flag.Bool("stats-json", false, "receiver: emit stats lines as JSON on stdout (abwmonitor's wire shape)")
		rcvBuf    = flag.Int("rcvbuf", 0, "receiver: request this SO_RCVBUF in bytes on the probe socket (0 = OS default); the kernel-granted size is logged and surfaced in -stats-json")
		fallback  = flag.Bool("ingest-fallback", false, "receiver: force the portable single-read ingest path (no batched syscalls, userspace timestamps)")
		to        = flag.String("to", "", "receiver address to probe toward")
		tool      = flag.String("tool", "pathload", "estimation technique (see -tools)")
		tools     = flag.Bool("tools", false, "list the registered tools and exit")
		scens     = flag.Bool("scenarios", false, "list the cataloged simulated scenarios and exit")
		scenName  = flag.String("scenario", "canonical", "cataloged scenario for -mode sim (see -scenarios)")
		minMbps   = flag.Float64("min", 1, "minimum probing rate (Mbps)")
		maxMbps   = flag.Float64("max", 500, "maximum probing rate (Mbps)")
		capMbps   = flag.Float64("capacity", 0, "tight-link capacity (Mbps), for direct-probing tools")
		pktSize   = flag.Int("pktsize", 0, "probe packet size in bytes (0 = tool default)")
		length    = flag.Int("len", 0, "packets per probing stream (0 = tool default)")
		repeat    = flag.Int("repeat", 0, "streams per rate / trains / chirps / pairs (0 = tool default)")
		rounds    = flag.Int("rounds", 0, "max probing-rate search rounds (0 = tool default)")
		budgetS   = flag.Int("max-streams", 0, "probing budget: max streams (0 = unlimited)")
		budgetP   = flag.Int("max-packets", 0, "probing budget: max packets (0 = unlimited)")
		budgetD   = flag.Duration("max-duration", 0, "probing budget: max estimation time (0 = unlimited); each stream's send span is charged, not the wait around it, so a -mode sim run may pass it by up to 10ms spacing + 2s resolve wait")
		jsonOut   = flag.Bool("json", false, "print the report as JSON on stdout")
		progress  = flag.Bool("progress", false, "print per-stream progress to stderr")
		seed      = flag.Uint64("seed", uint64(time.Now().UnixNano()), "random seed: send seeds the tool; sim compiles the scenario at it and seeds the tool with seed+1, as the matrix cell at this seed")
	)
	flag.Parse()
	if *tools {
		printTools()
		return
	}
	if *scens {
		printScenarios()
		return
	}
	mkParams := func() abw.Params {
		// Written so that NaN fails: it passes every `<= 0` test.
		if !(*minMbps > 0 && *maxMbps > *minMbps && !math.IsInf(*maxMbps, 1)) {
			usageErr("need 0 < -min < -max, finite (got %g, %g)", *minMbps, *maxMbps)
		}
		if *capMbps != 0 && !(*capMbps > 0 && !math.IsInf(*capMbps, 1)) {
			usageErr("-capacity must be finite and positive (got %g)", *capMbps)
		}
		return abw.Params{
			RateLo:    abw.Rate(*minMbps * 1e6),
			RateHi:    abw.Rate(*maxMbps * 1e6),
			Capacity:  abw.Rate(*capMbps * 1e6),
			PktSize:   abw.Bytes(*pktSize),
			StreamLen: *length,
			Repeat:    *repeat,
			MaxRounds: *rounds,
			Rand:      abw.NewRand(*seed),
			Budget: abw.Budget{
				MaxStreams:  *budgetS,
				MaxPackets:  *budgetP,
				MaxDuration: *budgetD,
			},
		}
	}
	switch *mode {
	case "recv":
		recv(*listen, *maxSess, *rcvBuf, *fallback, *statsDur, *statsJSON)
	case "send":
		if *to == "" {
			usageErr("send mode needs -to host:port")
		}
		send(*to, *tool, mkParams(), *jsonOut, *progress)
	case "sim":
		simulate(*scenName, *seed, *tool, mkParams(), *jsonOut, *progress)
	default:
		usageErr("pick -mode recv, -mode send, or -mode sim")
	}
}

func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "abwprobe: "+format+"\n", args...)
	os.Exit(exitUsage)
}

func printTools() {
	fmt.Println("Registered estimation techniques:")
	for _, d := range abw.Tools() {
		fmt.Printf("  %-10s %s\n", d.Name, d.Summary)
		if d.NeedsCapacity {
			fmt.Printf("  %-10s requires %s\n", "", flagFor("Capacity"))
		}
	}
}

// flagFor maps a registry Params field name onto this CLI's flag
// spelling, for requirement errors.
func flagFor(field string) string {
	switch field {
	case "Capacity":
		return "-capacity (tight-link capacity, Mbps)"
	case "RateLo/RateHi":
		return "-min/-max (probing-rate bracket, Mbps)"
	case "Rand":
		return "-seed"
	}
	return field
}

func printScenarios() {
	fmt.Println("Cataloged simulated scenarios (-mode sim -scenario <name>):")
	for _, d := range abw.Scenarios() {
		name := d.Name
		if len(d.Aliases) > 0 {
			name += " (" + strings.Join(d.Aliases, ", ") + ")"
		}
		fmt.Printf("  %-32s %s\n", name, d.Summary)
	}
}

// flagWasSet reports whether the named flag was given explicitly.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// simulate runs the tool against a cataloged scenario compiled at
// seed, with the tool drawing from seed+1 — how a matrix cell at that
// seed runs: the same registry path as a live run, but with exact
// ground truth to judge the estimate against.
func simulate(scenarioName string, seed uint64, tool string, params abw.Params, jsonOut, progress bool) {
	d, ok := abw.LookupTool(tool)
	if !ok {
		usageErr("unknown tool %q (see -tools)", tool)
	}
	sc, err := catalogScenario(scenarioName, seed)
	if err != nil {
		usageErr("%v (see -scenarios)", err)
	}
	params.Rand = abw.NewRand(seed + 1)
	// Scenario ground truth fills what the flags left out: the true
	// tight-link capacity, and a probing bracket derived from it.
	if !flagWasSet("min") && !flagWasSet("max") {
		params.RateLo, params.RateHi = 0, 0
	}
	if params.Capacity == 0 {
		params.Capacity = sc.Capacity
	}
	if progress {
		params.Observer = func(ev abw.StreamEvent) {
			fmt.Fprintf(os.Stderr, "  stream %d: %d pkts (%d lost) at %v\n",
				ev.Stream, ev.Packets, ev.Lost, ev.At.Round(time.Millisecond))
		}
	}
	if !jsonOut {
		fmt.Printf("abwprobe: running %s on scenario %q (%d hops, true avail-bw %.2f Mbps",
			d.Name, sc.Name, sc.Hops(), sc.TrueAvailBw.MbpsOf())
		if sc.TightLink != sc.NarrowLink {
			fmt.Printf("; tight link %d ≠ narrow link %d", sc.TightLink, sc.NarrowLink)
		}
		fmt.Println(")")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rep, err := abw.Estimate(ctx, d.Name, params, sc.Transport)
	if err != nil {
		if jsonOut {
			printJSON(d.Name, rep, err)
		}
		fmt.Fprintf(os.Stderr, "abwprobe: %v\n", err)
		os.Exit(exitEstim)
	}
	if jsonOut {
		printJSON(d.Name, rep, nil)
		return
	}
	fmt.Println(rep)
	errPct := 100 * (rep.Point.MbpsOf() - sc.TrueAvailBw.MbpsOf()) / sc.TrueAvailBw.MbpsOf()
	fmt.Printf("  true avail-bw: %.2f Mbps (estimate off by %+.1f%%)\n", sc.TrueAvailBw.MbpsOf(), errPct)
}

// catalogScenario compiles the cataloged scenario called name (or an
// alias of it) at Spec.Seed = seed.
func catalogScenario(name string, seed uint64) (*abw.Scenario, error) {
	for _, d := range abw.Scenarios() {
		if d.Name == name || slices.Contains(d.Aliases, name) {
			spec := d.Spec
			spec.Seed = abw.Seed(seed)
			sc, err := abw.NewScenario(spec)
			if err != nil {
				return nil, err
			}
			sc.Name = d.Name
			return sc, nil
		}
	}
	return nil, fmt.Errorf("unknown scenario %q", name)
}

// recv runs the multi-session measurement server until interrupted,
// periodically reporting sessions, streams, packets, and drops — as
// text on stderr, or with jsonStats as one-line JSON on stdout in the
// monitor's wire shape (abw.ReceiverStats).
func recv(listen string, maxSessions, rcvBuf int, fallback bool, statsEvery time.Duration, jsonStats bool) {
	r, err := abw.ListenReceiverConfig(listen, abw.ReceiverConfig{
		MaxSessions:   maxSessions,
		RcvBuf:        rcvBuf,
		ForceFallback: fallback,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "abwprobe: %v\n", err)
		os.Exit(exitEstim)
	}
	defer r.Close()
	st := r.Stats()
	tsSrc := "userspace clock"
	if st.KernelTimestamps {
		tsSrc = "kernel RX timestamps"
	}
	fmt.Fprintf(os.Stderr, "abwprobe: receiving on %s (ctrl+c to stop)\n", r.Addr())
	fmt.Fprintf(os.Stderr, "abwprobe: ingest: %s, rcvbuf granted %d bytes", tsSrc, st.RcvBufBytes)
	if rcvBuf > 0 {
		fmt.Fprintf(os.Stderr, " (requested %d; Linux reports double the usable request)", rcvBuf)
	}
	fmt.Fprintln(os.Stderr)
	enc := json.NewEncoder(os.Stdout)
	report := func() {
		if jsonStats {
			if err := enc.Encode(r.Stats()); err != nil {
				fmt.Fprintf(os.Stderr, "abwprobe: encoding stats: %v\n", err)
			}
			return
		}
		fmt.Fprintf(os.Stderr, "abwprobe: %v\n", r.Stats())
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	if statsEvery <= 0 {
		<-ch
		report()
		return
	}
	tick := time.NewTicker(statsEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			report()
		case <-ch:
			report()
			return
		}
	}
}

func send(to, tool string, params abw.Params, jsonOut, progress bool) {
	// Usage errors — unknown tool, a requirement the flags did not
	// satisfy — exit 2 before any packet is sent. The requirement list
	// comes from the tool's registry descriptor, not from hand-written
	// per-tool checks.
	d, ok := abw.LookupTool(tool)
	if !ok {
		var names []string
		for _, n := range abw.Tools() {
			names = append(names, n.Name)
		}
		usageErr("unknown tool %q (try %s)", tool, strings.Join(names, ", "))
	}
	if missing := d.MissingParams(params); len(missing) > 0 {
		flags := make([]string, len(missing))
		for i, m := range missing {
			flags[i] = flagFor(m)
		}
		usageErr("%s needs %s", d.Name, strings.Join(flags, ", "))
	}
	if progress {
		params.Observer = func(ev abw.StreamEvent) {
			fmt.Fprintf(os.Stderr, "  stream %d: %d pkts (%d lost) at %v\n",
				ev.Stream, ev.Packets, ev.Lost, ev.At.Round(time.Millisecond))
		}
	}

	tr, err := abw.DialReceiver(to)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abwprobe: %v\n", err)
		os.Exit(exitEstim)
	}
	defer tr.Close()

	// Ctrl+C cancels the context; the estimator stops at the next
	// stream boundary and the run reports the cancellation. The
	// handler deregisters on first cancellation so a second Ctrl+C
	// force-quits a probe stuck inside a stream.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop)

	if !jsonOut {
		fmt.Printf("abwprobe: running %s toward %s\n", d.Name, to)
	}
	rep, err := abw.Estimate(ctx, d.Name, params, tr)
	if err != nil {
		if jsonOut {
			printJSON(d.Name, rep, err)
		}
		fmt.Fprintf(os.Stderr, "abwprobe: %v\n", err)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "abwprobe: interrupted at a stream boundary")
		}
		os.Exit(exitEstim)
	}
	if jsonOut {
		printJSON(d.Name, rep, nil)
		return
	}
	fmt.Println(rep)
	fmt.Printf("  overhead: %d probe bytes\n", rep.ProbeBytes)
	if rep.Low != rep.High {
		fmt.Println("  note: the range is the avail-bw variation at the probing timescale,")
		fmt.Println("        NOT a confidence interval for the mean (misconception #9)")
	}
}

// printJSON marshals the run's outcome — report or error — in the one
// shared JSON shape (core.Outcome).
func printJSON(tool string, rep *abw.Report, err error) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if encErr := enc.Encode(abw.NewOutcome(tool, rep, err)); encErr != nil {
		fmt.Fprintf(os.Stderr, "abwprobe: encoding report: %v\n", encErr)
	}
}
