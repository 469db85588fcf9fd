// Package bfind implements BFind (Akella, Seshan & Shaikh, IMC 2003),
// the odd one out in the paper's classification: it needs control of only
// the sending end. It ramps up a UDP load on the path while repeatedly
// "tracerouting" — measuring the round-trip time to every intermediate
// hop — and declares the avail-bw reached when some hop's RTT shows a
// sustained rise (a growing queue at that link).
//
// Because per-hop RTT observation has no place in the end-to-end
// core.Transport abstraction, this implementation drives the simulator
// directly: Estimate type-asserts a *core.SimTransport and emulates the
// ICMP TTL-expired responses with prefix-routed probe packets.
package bfind

import (
	"context"
	"fmt"
	"time"

	"abw/internal/core"
	"abw/internal/crosstraffic"
	"abw/internal/rng"
	"abw/internal/sim"
	"abw/internal/stats"
	"abw/internal/unit"
)

// Config tunes the estimator.
type Config struct {
	// StartRate is the initial UDP load (default 1 Mbps).
	StartRate unit.Rate
	// MaxRate bounds the ramp (required): BFind is intrusive by design
	// and needs an explicit ceiling.
	MaxRate unit.Rate
	// LoadPktSize is the UDP load packet size (default 1000 B).
	LoadPktSize unit.Bytes
}

// The ramp: each load level is rampStep above the last and is held for
// window, while traceProbes per-hop RTT probes watch every hop. A hop
// whose median delay rises delayThreshold above its unloaded baseline
// is saturated.
const (
	rampStep       = 2 * unit.Mbps
	window         = 200 * time.Millisecond
	traceProbes    = 10
	delayThreshold = 5 * time.Millisecond
)

func (c Config) withDefaults() (Config, error) {
	if c.MaxRate <= 0 {
		return c, fmt.Errorf("bfind: MaxRate is required (the ramp must have a ceiling)")
	}
	if c.StartRate == 0 {
		c.StartRate = 1 * unit.Mbps
	}
	if c.StartRate <= 0 || c.StartRate > c.MaxRate {
		return c, fmt.Errorf("bfind: StartRate %v outside (0, MaxRate]", c.StartRate)
	}
	if c.LoadPktSize == 0 {
		c.LoadPktSize = 1000
	}
	if c.LoadPktSize < 0 {
		return c, fmt.Errorf("bfind: LoadPktSize %d must be positive", c.LoadPktSize)
	}
	return c, nil
}

// Estimator is the BFind sender-side prober.
type Estimator struct {
	cfg Config
}

// New validates the configuration and returns the estimator.
func New(cfg Config) (*Estimator, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Estimator{cfg: c}, nil
}

// Name implements core.Estimator.
func (e *Estimator) Name() string { return "bfind" }

// Estimate implements core.Estimator. The transport must be a
// *core.SimTransport; BFind needs hop visibility that end-to-end
// transports cannot offer. BFind drives the simulator directly rather
// than calling Probe, so it checks ctx itself at every ramp window —
// the same stream-boundary granularity as the other tools.
func (e *Estimator) Estimate(ctx context.Context, t core.Transport) (*core.Report, error) {
	st, ok := t.(*core.SimTransport)
	if !ok {
		return nil, fmt.Errorf("bfind: requires a simulated path (per-hop RTT observation)")
	}
	c := e.cfg
	s, path := st.Sim, st.Path
	start := s.Now()
	hops := len(path.Links)

	// Baseline per-hop delays on the unloaded path.
	baseline := make([]float64, hops)
	for h := 0; h < hops; h++ {
		ds := e.traceHop(s, path, h, 5, 10*time.Millisecond)
		baseline[h] = stats.Mean(ds)
	}

	var packets int
	var bytes unit.Bytes
	saturatedHop := -1
	rate := c.StartRate
	estimate := c.MaxRate
ramp:
	for ; rate <= c.MaxRate; rate += rampStep {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Offer the UDP load for one window.
		from := s.Now()
		load := &crosstraffic.Counter{Process: crosstraffic.CBR(crosstraffic.Stream{
			Rate:  rate,
			Sizes: rng.FixedSize(c.LoadPktSize),
		}).Over(from, from+window)}
		s.Feed(path.Route(), sim.KindProbe, 0, load.Next)
		// Trace every hop while the load runs: all probes for all hops
		// are scheduled inside the window before the clock advances.
		spacing := window / time.Duration(traceProbes+1)
		delays := make([][]float64, hops)
		outstanding := 0
		for h := 0; h < hops; h++ {
			delays[h] = make([]float64, 0, traceProbes)
			h := h
			for i := 0; i < traceProbes; i++ {
				sendAt := from + time.Duration(i+1)*spacing
				s.Inject(&sim.Packet{
					Size:  40,
					Kind:  sim.KindProbe,
					Route: path.Links[:h+1],
					OnArrive: func(_ *sim.Packet, at time.Duration) {
						delays[h] = append(delays[h], (at - sendAt).Seconds())
						outstanding--
					},
					OnDrop: func(*sim.Packet, *sim.Link, time.Duration) { outstanding-- },
				}, sendAt)
				outstanding++
			}
		}
		deadline := from + window + time.Second
		for outstanding > 0 && s.Now() < deadline {
			step := deadline - s.Now()
			if step > 20*time.Millisecond {
				step = 20 * time.Millisecond
			}
			s.RunUntil(s.Now() + step)
		}
		if end := from + window + 100*time.Millisecond; s.Now() < end {
			s.RunUntil(end)
		}
		packets += int(load.Packets) + hops*traceProbes
		bytes += load.Bytes
		for h := 0; h < hops; h++ {
			if len(delays[h]) == 0 {
				continue
			}
			// Sustained rise: the median of the window's probes exceeds
			// baseline by the threshold.
			med := stats.Median(delays[h])
			if med-baseline[h] > delayThreshold.Seconds() {
				saturatedHop = h
				estimate = rate
				break ramp
			}
		}
	}
	rep := &core.Report{
		Tool:       e.Name(),
		Point:      estimate,
		Low:        estimate,
		High:       estimate,
		Streams:    1,
		Packets:    packets,
		ProbeBytes: bytes,
		Elapsed:    s.Now() - start,
	}
	if saturatedHop == -1 {
		return rep, fmt.Errorf("bfind: no hop saturated up to %v (avail-bw above the ramp ceiling)", c.MaxRate)
	}
	return rep, nil
}

// traceHop measures n one-way delays to hop h (prefix routing emulates
// the TTL-expired probe). All probes are scheduled at fixed offsets
// i·spacing from now — concurrent with whatever load is running — so the
// samples stay inside the observation window regardless of queueing.
// The simulation is advanced until every probe resolves. Delays are in
// seconds.
func (e *Estimator) traceHop(s *sim.Sim, path *sim.Path, h, n int, spacing time.Duration) []float64 {
	prefix := path.Links[:h+1]
	out := make([]float64, 0, n)
	resolved := 0
	base := s.Now()
	var lastSend time.Duration
	for i := 0; i < n; i++ {
		sendAt := base + time.Duration(i+1)*spacing
		lastSend = sendAt
		s.Inject(&sim.Packet{
			Size:  40, // ICMP-sized probe
			Kind:  sim.KindProbe,
			Route: prefix,
			OnArrive: func(_ *sim.Packet, at time.Duration) {
				out = append(out, (at - sendAt).Seconds())
				resolved++
			},
			OnDrop: func(*sim.Packet, *sim.Link, time.Duration) { resolved++ },
		}, sendAt)
	}
	deadline := lastSend + time.Second
	for resolved < n && s.Now() < deadline {
		step := deadline - s.Now()
		if step > 20*time.Millisecond {
			step = 20 * time.Millisecond
		}
		s.RunUntil(s.Now() + step)
	}
	return out
}

var _ core.Estimator = (*Estimator)(nil)
