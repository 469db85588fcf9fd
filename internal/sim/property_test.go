package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"abw/internal/rng"
	"abw/internal/unit"
)

// This file is the property-test harness for the Internet-realistic
// link models: rather than checking single hand-computed examples, it
// sweeps the queue-discipline × loss-model grid over seeded random
// multi-hop paths and asserts invariants that must hold for every
// combination — packet and byte conservation, FIFO work conservation,
// RED's analytic drop bounds, and exact ground truth under
// time-varying capacity.

// disciplineMaker builds a fresh discipline per link (AQM state is
// per-queue, never shared).
type disciplineMaker struct {
	name string
	make func(r *rng.Rand) Discipline
}

// lossMaker builds a fresh loss model per link.
type lossMaker struct {
	name string
	make func(r *rng.Rand) LossModel
}

func disciplineMakers() []disciplineMaker {
	return []disciplineMaker{
		{"nil", func(*rng.Rand) Discipline { return nil }},
		{"red", func(r *rng.Rand) Discipline { return NewRED(REDConfig{}, r) }},
		{"codel", func(*rng.Rand) Discipline { return NewCoDel(CoDelConfig{}) }},
	}
}

func lossMakers() []lossMaker {
	return []lossMaker{
		{"none", func(*rng.Rand) LossModel { return nil }},
		{"bernoulli", func(r *rng.Rand) LossModel { return NewBernoulliLoss(0.02, r) }},
		{"gilbert", func(r *rng.Rand) LossModel { return NewGilbertElliott(GilbertElliottConfig{}, r) }},
	}
}

// randomPath builds a 1–5 hop path with random capacities, buffers,
// delays and (sometimes) jitter, all seeded from r.
func randomPath(s *Sim, r *rng.Rand, dm disciplineMaker, lm lossMaker) []*Link {
	hops := 1 + int(r.Uint64()%5)
	links := make([]*Link, hops)
	for h := range links {
		cap := unit.Rate(5+90*r.Float64()) * unit.Mbps
		prop := time.Duration(r.Float64() * float64(5*time.Millisecond))
		l := s.NewLink(fmt.Sprintf("hop%d", h), cap, prop)
		if r.Float64() < 0.5 {
			l.SetBuffer(unit.Bytes(15000 + r.Uint64()%90000))
		}
		l.SetDiscipline(dm.make(rng.New(r.Uint64())))
		l.SetLoss(lm.make(rng.New(r.Uint64())))
		if r.Float64() < 0.3 {
			l.SetJitter(time.Duration(r.Float64()*float64(time.Millisecond)), rng.New(r.Uint64()))
		}
		links[h] = l
	}
	return links
}

// TestConservationAcrossModelGrid asserts, for every discipline × loss
// combination over seeded random paths, that every packet injected into
// the path is accounted for exactly once at each hop — forwarded,
// queue-dropped, or loss-killed — in both packets and bytes, that
// end-to-end deliveries equal the last hop's forwarded count, and that
// every queue is empty after Run. Every hop also carries one-hop cross
// traffic, which the hops without a discipline fold.
func TestConservationAcrossModelGrid(t *testing.T) {
	for _, dm := range disciplineMakers() {
		for _, lm := range lossMakers() {
			t.Run(dm.name+"/"+lm.name, func(t *testing.T) {
				var foldedCell int64
				for seed := uint64(1); seed <= 3; seed++ {
					r := rng.New(seed)
					s := New()
					links := randomPath(s, r, dm, lm)

					const n = 3000
					var delivered, sentBytes int64
					// lost[h] and lostBytes[h] count the path's packets
					// hop h discarded, whatever the cause.
					lost := make([]int64, len(links))
					lostBytes := make([]int64, len(links))
					onDrop := func(p *Packet, l *Link, _ time.Duration) {
						h := slices.Index(links, l)
						lost[h]++
						lostBytes[h] += int64(p.Size)
					}
					for i := 0; i < n; i++ {
						p := s.NewPacket()
						p.Size = unit.Bytes(200 + r.Uint64()%1300)
						p.Route = links
						p.OnArrive = func(*Packet, time.Duration) { delivered++ }
						p.OnDrop = onDrop
						sentBytes += int64(p.Size)
						// Bursty arrivals so queues actually build.
						s.Inject(p, time.Duration(r.Float64()*float64(2*time.Second)))
					}
					// fed[h] counts the 1000-byte cross packets fed to hop
					// h; folds[h] says whether the hop folds them.
					fed := make([]int64, len(links))
					folds := make([]bool, len(links))
					for h, l := range links {
						folds[h] = l.canFold()
						h, cr := h, rng.New(seed+uint64(h)*100)
						var at time.Duration
						s.Feed([]*Link{l}, KindCross, 0, func() (time.Duration, unit.Bytes, bool) {
							if fed[h] == n/2 {
								return 0, 0, false
							}
							fed[h]++
							at += time.Duration(cr.Float64() * float64(8*time.Millisecond))
							return at, 1000, true
						})
					}
					s.Run()

					in := int64(n)
					var foldedFwd int64
					inBytes := sentBytes
					for h, l := range links {
						in += fed[h]
						inBytes += 1000 * fed[h]
						if got := l.Forwarded() + l.Dropped() + l.Lost(); got != in {
							t.Fatalf("seed %d hop %d: fwd %d + drop %d + lost %d = %d, want %d arrivals",
								seed, h, l.Forwarded(), l.Dropped(), l.Lost(), got, in)
						}
						if got := l.BytesServed() + l.DroppedBytes() + l.LostBytes(); int64(got) != inBytes {
							t.Fatalf("seed %d hop %d: byte accounting %d, want %d", seed, h, got, inBytes)
						}
						if l.QueueLen() != 0 || l.QueuedBytes() != 0 {
							t.Fatalf("seed %d hop %d: queue not drained after Run (%d pkts, %d bytes)",
								seed, h, l.QueueLen(), l.QueuedBytes())
						}
						// What the hop forwarded of the path's packets goes
						// on to the next hop; the rest it forwarded was fed.
						fedFwd := l.Forwarded() - (in - fed[h] - lost[h])
						if fedFwd < 0 || fedFwd > fed[h] {
							t.Fatalf("seed %d hop %d: forwarded %d of the %d packets fed to it", seed, h, fedFwd, fed[h])
						}
						if folds[h] {
							foldedFwd += fedFwd
						}
						in -= fed[h] + lost[h]
						inBytes -= 1000*fed[h] + lostBytes[h]
					}
					if delivered != in {
						t.Fatalf("seed %d: delivered %d != last hop forwarded %d", seed, delivered, in)
					}
					if folded := s.Stats().Folded; folded != uint64(foldedFwd) {
						t.Fatalf("seed %d: folded %d packets, folding hops forwarded %d fed ones", seed, folded, foldedFwd)
					}
					foldedCell += foldedFwd
					if lm.name == "none" && dm.name != "red" && dm.name != "codel" {
						// No loss model and no AQM: only buffer bounds can
						// drop, and those are honest congestion drops —
						// Lost must stay zero.
						for h, l := range links {
							if l.Lost() != 0 {
								t.Fatalf("hop %d: lost %d packets without a loss model", h, l.Lost())
							}
						}
					}
				}
				if fifo := dm.name == "nil"; fifo != (foldedCell > 0) {
					t.Errorf("the cell's three paths folded %d packets", foldedCell)
				}
			})
		}
	}
}

// TestFIFOWorkConservation asserts the FIFO link is work-conserving:
// with an unbounded buffer nothing is dropped, and the transmitter's
// recorded busy time equals the fluid transmission time of every byte
// injected — the queue never idles while work is waiting.
func TestFIFOWorkConservation(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		r := rng.New(seed)
		s := New()
		cap := unit.Rate(10+40*r.Float64()) * unit.Mbps
		l := s.NewLink("fifo", cap, time.Millisecond)
		rec := NewRecorder(cap)
		l.Attach(rec)

		const n = 2000
		var bytes unit.Bytes
		for i := 0; i < n; i++ {
			p := s.NewPacket()
			p.Size = unit.Bytes(100 + r.Uint64()%1400)
			p.Route = []*Link{l}
			bytes += p.Size
			s.Inject(p, time.Duration(r.Float64()*float64(time.Second)))
		}
		s.Run()

		if l.Forwarded() != n || l.Dropped() != 0 {
			t.Fatalf("seed %d: unbounded FIFO forwarded %d dropped %d, want %d/0", seed, l.Forwarded(), l.Dropped(), n)
		}
		var busy time.Duration
		for _, iv := range rec.BusyIntervals() {
			busy += iv.End - iv.Start
		}
		want := unit.TxTime(bytes, cap)
		if diff := (busy - want).Abs(); diff > time.Duration(n) { // ≤1ns rounding per packet
			t.Fatalf("seed %d: busy time %v, want %v (Δ %v)", seed, busy, want, diff)
		}
	}
}

// TestREDDropRateWithinAnalyticBounds pins the queue occupancy seen by
// RED and checks the long-run drop rate against the analytic marking
// probability. With the count-based uniformization the packets between
// drops are ~uniform on {1..⌈1/p_b⌉}, so the rate converges to
// 2·p_b/(1+p_b); we assert the empirical rate lands between p_b and
// 2·p_b with slack for EWMA convergence.
func TestREDDropRateWithinAnalyticBounds(t *testing.T) {
	for _, occupancy := range []int{8, 10, 12} {
		s := New()
		l := s.NewLink("red", 10*unit.Mbps, 0)
		red := NewRED(REDConfig{}, rng.New(17))
		// Pin the queue state RED observes: a busy link with a fixed
		// backlog, far more arrivals than the EWMA time constant.
		l.busy = true
		for i := 0; i < occupancy-1; i++ {
			l.push(&Packet{Size: 1500})
		}
		const n = 400000
		drops := 0
		p := &Packet{Size: 1500}
		for i := 0; i < n; i++ {
			if !red.Admit(l, p) {
				drops++
			}
		}
		cfg := red.cfg
		if avg := red.AvgQueue(); math.Abs(avg-float64(occupancy)) > 0.5 {
			t.Fatalf("occupancy %d: EWMA settled at %.3f", occupancy, avg)
		}
		pb := cfg.MaxP * (float64(occupancy) - float64(cfg.MinTh)) / float64(cfg.MaxTh-cfg.MinTh)
		rate := float64(drops) / n
		lo, hi := 0.9*pb, 2.1*pb
		if rate < lo || rate > hi {
			t.Errorf("occupancy %d: drop rate %.5f outside analytic bounds [%.5f, %.5f] (p_b=%.5f)",
				occupancy, rate, lo, hi, pb)
		}
		// And the uniformized point estimate should be close.
		want := 2 * pb / (1 + pb)
		if math.Abs(rate-want) > 0.25*want {
			t.Errorf("occupancy %d: drop rate %.5f far from uniformized %.5f", occupancy, rate, want)
		}
	}
}

// TestAvailBwUnderTimeVaryingCapacity drives a CBR flow through a link
// with a piecewise-constant capacity profile and asserts the recorder's
// ground truth equals C(t) − r inside every constant segment — the
// paper's Equation (2) generalized to time-varying capacity.
func TestAvailBwUnderTimeVaryingCapacity(t *testing.T) {
	steps := []CapacityStep{
		{0, 40 * unit.Mbps},
		{4 * time.Second, 15 * unit.Mbps},
		{8 * time.Second, 25 * unit.Mbps},
	}
	const crossRate = 10 * unit.Mbps
	t.Run("full", func(t *testing.T) {
		s := New()
		l := s.NewLink("var", steps[0].Rate, 0)
		l.SetCapacitySchedule(steps)
		rec := NewRecorder(steps[0].Rate)
		rec.SetCapacitySchedule(steps)
		l.Attach(rec)
		injectCBR(s, l, 10000, 1500, crossRate, 0) // 12 s of CBR at 10 Mbps
		s.Run()

		// Measure within segment interiors, away from rate-change
		// transients (a packet mid-service when the rate steps).
		for i, seg := range steps {
			from := seg.At + time.Second
			window := 2 * time.Second
			got := rec.AvailBw(from, window)
			want := seg.Rate - crossRate
			if math.Abs(float64(got-want)) > 0.02*float64(seg.Rate) {
				t.Errorf("segment %d [%v @ %v]: AvailBw = %v, want %v", i, seg.At, seg.Rate, got, want)
			}
			// Cross-check against the measured arrival rate, the
			// identity the issue asks for: avail = capacity − rate.
			arr := rec.ArrivalRate(from, window, nil)
			if math.Abs(float64(got-(seg.Rate-arr))) > 0.02*float64(seg.Rate) {
				t.Errorf("segment %d: AvailBw %v inconsistent with C−R = %v", i, got, seg.Rate-arr)
			}
		}
		// A window spanning the first rate change sees the
		// time-weighted mean: 2s@40 + 2s@15 → C̄ = 27.5 Mbps.
		got := rec.AvailBw(2*time.Second, 4*time.Second)
		want := 27.5*unit.Mbps - crossRate
		if math.Abs(float64(got-want)) > 0.02*float64(want) {
			t.Errorf("cross-boundary window: AvailBw = %v, want %v", got, want)
		}
	})
}

// TestDeterministicReplayAcrossModelGrid runs the same seeded scenario
// twice per grid cell and asserts bit-identical outcomes — the contract
// that makes lossy/AQM experiments reproducible.
func TestDeterministicReplayAcrossModelGrid(t *testing.T) {
	type outcome struct {
		fwd, drop, lost int64
		bytes           unit.Bytes
		end             time.Duration
	}
	run := func(seed uint64, dm disciplineMaker, lm lossMaker) []outcome {
		r := rng.New(seed)
		s := New()
		links := randomPath(s, r, dm, lm)
		for i := 0; i < 2000; i++ {
			p := s.NewPacket()
			p.Size = unit.Bytes(300 + r.Uint64()%1200)
			p.Route = links
			s.Inject(p, time.Duration(r.Float64()*float64(time.Second)))
		}
		s.Run()
		out := make([]outcome, len(links))
		for i, l := range links {
			out[i] = outcome{l.Forwarded(), l.Dropped(), l.Lost(), l.BytesServed(), s.Now()}
		}
		return out
	}
	for _, dm := range disciplineMakers() {
		for _, lm := range lossMakers() {
			a := run(42, dm, lm)
			b := run(42, dm, lm)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s/%s hop %d: replay diverged: %+v vs %+v", dm.name, lm.name, i, a[i], b[i])
				}
			}
		}
	}
}
