// Package abw reproduces "Ten Fallacies and Pitfalls on End-to-End
// Available Bandwidth Estimation" (Jain & Dovrolis, IMC 2004) as a Go
// library: a discrete-event network simulator, the paper's cross-traffic
// models and trace substrate, seven of the estimation tools it classifies
// (Delphi, TOPP, Pathload, pathChirp, IGI, PTR, Spruce) plus a
// learned eighth estimator trained on their shared probe features, a
// packet-level TCP Reno, a live UDP probing transport, and one
// experiment per table and figure in the paper, all running their
// trials on a parallel, deterministic trial engine (internal/runner).
//
// This package is also the public facade: estimation techniques are
// named in a registry and run with
//
//	report, err := abw.Estimate(ctx, "pathload", abw.Params{...}, transport)
//
// where the transport is a simulated path (NewScenario, from a
// declarative ScenarioSpec or a cataloged scenario name) or live UDP
// sockets (ListenReceiver/DialReceiver; the receiver serves many
// concurrent sender sessions, one per dialed transport). Runs honor
// ctx cancellation at stream boundaries, accept a uniform probing
// Budget enforced below every tool, and report per-stream progress
// through an Observer.
// abw.Tools() lists the registered techniques and their requirements;
// abw.Scenarios() lists the cataloged simulated conditions — every
// pitfall of the paper as a nameable, reproducible scenario.
//
// Entry points:
//
//   - cmd/abwsim regenerates every table and figure;
//   - cmd/abwprobe runs the estimators over real UDP sockets;
//   - examples/ holds runnable walkthroughs of the public API;
//   - bench_test.go in this directory carries one benchmark per
//     table/figure.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package abw
