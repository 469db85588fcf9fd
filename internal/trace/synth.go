package trace

import (
	"fmt"
	"time"

	"abw/internal/fgn"
	"abw/internal/rng"
	"abw/internal/stats"
	"abw/internal/unit"
)

// FGNConfig parameterizes the fGn rate-modulated generator: packet
// arrivals are locally Poisson, with the window rate following a
// fractional Gaussian noise envelope of exactly known Hurst parameter.
type FGNConfig struct {
	// Capacity is the link capacity (default unit.OC3).
	Capacity unit.Rate
	// MeanRate is the target traffic rate (default 70 Mbps).
	MeanRate unit.Rate
	// Hurst is the envelope's Hurst parameter (default 0.8).
	Hurst float64
	// Window is the modulation granularity (default 10 ms).
	Window time.Duration
	// Span is the trace duration (default 30 s).
	Span time.Duration
	// Sizes draws packet sizes (default the trimodal Internet mix).
	Sizes rng.SizeDist
}

// relStdDev is the standard deviation of the fGn window rate relative
// to MeanRate, at Window granularity: chosen so the 10 ms avail-bw
// roams roughly 60–110 Mbps as in Figure 6.
const relStdDev = 0.18

func (c FGNConfig) withDefaults() (FGNConfig, error) {
	if c.Capacity == 0 {
		c.Capacity = unit.OC3
	}
	if c.MeanRate == 0 {
		c.MeanRate = 70 * unit.Mbps
	}
	if c.Capacity <= 0 || c.MeanRate <= 0 || c.MeanRate >= c.Capacity {
		return c, fmt.Errorf("trace: need 0 < MeanRate < Capacity (got %v, %v)", c.MeanRate, c.Capacity)
	}
	if c.Hurst == 0 {
		c.Hurst = 0.8
	}
	if !(c.Hurst > 0 && c.Hurst < 1) {
		return c, fmt.Errorf("trace: Hurst %g outside (0, 1)", c.Hurst)
	}
	if c.Window == 0 {
		c.Window = 10 * time.Millisecond
	}
	if c.Window <= 0 {
		return c, fmt.Errorf("trace: window must be positive")
	}
	if c.Span == 0 {
		c.Span = 30 * time.Second
	}
	if c.Span < 2*c.Window {
		return c, fmt.Errorf("trace: span %v too short for window %v", c.Span, c.Window)
	}
	if c.Sizes == nil {
		c.Sizes = rng.InternetMix
	}
	return c, nil
}

// FGNStream is the fGn generator run on demand: the envelope is drawn
// when the stream is built, packets one modulation window at a time as
// they are asked for. The arrivals stream is private to the generator
// and consumed strictly window after window, so pulling packets lazily
// yields exactly the sequence a single drain does. Generated packets
// are retained: a consumer that replays the trace (tiling it over a
// longer horizon) reads the same packets again.
type FGNStream struct {
	c        FGNConfig // defaults resolved
	envelope []float64
	arrivals *rng.Rand
	w        int // next window to synthesize
	pkts     []Pkt
}

// NewFGNStream validates the configuration and draws the envelope (the
// two FFTs); no packet is synthesized yet.
func NewFGNStream(cfg FGNConfig, r *rng.Rand) (*FGNStream, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if r == nil {
		return nil, fmt.Errorf("trace: fGn synthesis needs a random source")
	}
	gen, err := fgn.NewGenerator(c.Hurst, int(c.Span/c.Window))
	if err != nil {
		return nil, err
	}
	envelope, err := gen.Sample(r.Split("envelope"))
	if err != nil {
		return nil, err
	}
	return &FGNStream{
		c:        c,
		envelope: envelope,
		arrivals: r.Split("arrivals"),
	}, nil
}

// Span returns the trace duration (FGNConfig.Span, defaults resolved).
func (g *FGNStream) Span() time.Duration { return g.c.Span }

// window synthesizes the next modulation window's packets — locally
// Poisson at the envelope's rate, in non-decreasing time order — and
// reports whether there was a window left to synthesize.
func (g *FGNStream) window() bool {
	if g.w == len(g.envelope) {
		return false
	}
	c := g.c
	sigma := float64(c.MeanRate) * relStdDev
	rate := float64(c.MeanRate) + sigma*g.envelope[g.w]
	winStart := time.Duration(g.w) * c.Window
	g.w++
	// Clamp to the physical range; clamping slightly reduces the
	// realized variance, which the calibration tests account for.
	if rate > float64(c.Capacity) {
		rate = float64(c.Capacity)
	}
	if rate <= 0 {
		return true
	}
	meanGap := c.Sizes.Mean() * 8 / rate
	at := winStart + time.Duration(g.arrivals.Exp(meanGap)*1e9)
	for at < winStart+c.Window {
		size := unit.Bytes(c.Sizes.Sample(g.arrivals))
		g.pkts = append(g.pkts, Pkt{At: at, Size: size})
		at += time.Duration(g.arrivals.Exp(meanGap) * 1e9)
	}
	return true
}

// Packet returns the i-th packet of the trace, synthesizing windows up
// to the one containing it and no further; ok is false past the last
// packet.
func (g *FGNStream) Packet(i int) (p Pkt, ok bool) {
	for i >= len(g.pkts) {
		if !g.window() {
			return Pkt{}, false
		}
	}
	return g.pkts[i], true
}

// SynthesizeFGN builds a trace whose windowed rate process is fGn with
// the configured Hurst parameter — the generator used when an experiment
// needs an exactly known correlation structure (e.g. validating the
// Equation (5) variance law on traffic rather than on raw fGn). It is
// the drain of an FGNStream.
func SynthesizeFGN(cfg FGNConfig, r *rng.Rand) (*Trace, error) {
	g, err := NewFGNStream(cfg, r)
	if err != nil {
		return nil, err
	}
	for g.window() {
	}
	if len(g.pkts) == 0 {
		return nil, fmt.Errorf("trace: synthesis produced no packets (rate too low?)")
	}
	return New(g.c.Capacity, g.c.Span, g.pkts)
}

// RateSeries returns the windowed arrival-rate series of the trace in
// Mbps, the raw material of variance–time analysis.
func (t *Trace) RateSeries(tau time.Duration) []float64 {
	var out []float64
	for at := time.Duration(0); at+tau <= t.Span; at += tau {
		out = append(out, t.Rate(at, tau).MbpsOf())
	}
	return out
}

// HurstEstimate estimates the trace's Hurst parameter from the
// variance–time plot of its rate series at the given base timescale.
func (t *Trace) HurstEstimate(tau time.Duration) (float64, error) {
	series := t.RateSeries(tau)
	if len(series) < 64 {
		return 0, fmt.Errorf("trace: too short for Hurst estimation (%d windows)", len(series))
	}
	maxK := len(series) / 8
	var ks []int
	for k := 1; k <= maxK; k *= 2 {
		ks = append(ks, k)
	}
	return stats.HurstVT(series, ks)
}
