package crosstraffic

import (
	"math"
	"testing"
	"time"

	"abw/internal/rng"
	"abw/internal/sim"
	"abw/internal/unit"
)

// Counter is a Process that counts what the Process it wraps emits,
// for calibration checks. Under sim.Feed a packet is counted when the
// feed pulls it, one element ahead of the link.
type Counter struct {
	Process
	Packets int64
	Bytes   unit.Bytes
}

// Next passes on the wrapped Process's next packet and counts it.
func (c *Counter) Next() (time.Duration, unit.Bytes, bool) {
	at, size, ok := c.Process.Next()
	if ok {
		c.Packets++
		c.Bytes += size
	}
	return at, size, ok
}

// AvgRate returns the average emission rate over the given span.
func (c *Counter) AvgRate(span time.Duration) unit.Rate {
	return unit.RateOf(c.Bytes, span)
}

// feed starts m's packets in [from, until) on route under one
// Sim.Feed and returns a counter of what it emits.
func feed(s *sim.Sim, route []*sim.Link, m Model, from, until time.Duration) *Counter {
	c := &Counter{Process: m.Over(from, until)}
	s.Feed(route, sim.KindCross, 0, c.Next)
	return c
}

// offered is one packet a model offered the link.
type offered struct {
	At   time.Duration
	Size unit.Bytes
}

// runModel drives a model over a single well-provisioned link and
// returns the packets it offered the link, in order, plus their counter.
func runModel(m Model, capacity unit.Rate, runFor time.Duration) ([]offered, *Counter) {
	s := sim.New()
	l := s.NewLink("l", capacity, 0)
	ctr := &Counter{Process: m.Over(0, runFor)}
	var pkts []offered
	s.Feed([]*sim.Link{l}, sim.KindCross, 0, func() (time.Duration, unit.Bytes, bool) {
		at, size, ok := ctr.Next()
		if ok {
			pkts = append(pkts, offered{at, size})
		}
		return at, size, ok
	})
	s.Run()
	return pkts, ctr
}

func TestCBRRateExact(t *testing.T) {
	m := CBR(Stream{Rate: 25 * unit.Mbps})
	_, ctr := runModel(m, 50*unit.Mbps, time.Second)
	got := ctr.AvgRate(time.Second)
	if math.Abs(got.MbpsOf()-25) > 0.2 {
		t.Errorf("CBR rate = %v, want ~25Mbps", got)
	}
}

func TestCBRPerfectlyPeriodic(t *testing.T) {
	m := CBR(Stream{Rate: 12 * unit.Mbps})
	arr, _ := runModel(m, 100*unit.Mbps, 500*time.Millisecond)
	if len(arr) < 3 {
		t.Fatalf("too few arrivals: %d", len(arr))
	}
	gap := arr[1].At - arr[0].At
	for i := 2; i < len(arr); i++ {
		if arr[i].At-arr[i-1].At != gap {
			t.Fatalf("interarrival %d differs: %v vs %v", i, arr[i].At-arr[i-1].At, gap)
		}
	}
	if want := unit.GapFor(1500, 12*unit.Mbps); gap != want {
		t.Errorf("gap = %v, want %v", gap, want)
	}
}

func TestPoissonRateConverges(t *testing.T) {
	m := Poisson(Stream{Rate: 25 * unit.Mbps}, rng.New(1))
	_, ctr := runModel(m, 100*unit.Mbps, 5*time.Second)
	got := ctr.AvgRate(5 * time.Second)
	if math.Abs(got.MbpsOf()-25)/25 > 0.03 {
		t.Errorf("Poisson rate = %v, want ~25Mbps", got)
	}
}

func TestPoissonInterarrivalCV(t *testing.T) {
	// Exponential interarrivals have coefficient of variation 1.
	m := Poisson(Stream{Rate: 10 * unit.Mbps}, rng.New(2))
	arr, _ := runModel(m, 100*unit.Mbps, 10*time.Second)
	var gaps []float64
	for i := 1; i < len(arr); i++ {
		gaps = append(gaps, (arr[i].At - arr[i-1].At).Seconds())
	}
	var mean float64
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	var v float64
	for _, g := range gaps {
		v += (g - mean) * (g - mean)
	}
	v /= float64(len(gaps) - 1)
	cv := math.Sqrt(v) / mean
	if math.Abs(cv-1) > 0.05 {
		t.Errorf("Poisson interarrival CV = %g, want ~1", cv)
	}
}

func TestPoissonModalSizes(t *testing.T) {
	sizes := rng.MustModalSizes(rng.Mode{Size: 40, Prob: 0.5}, rng.Mode{Size: 1500, Prob: 0.5})
	m := Poisson(Stream{Rate: 20 * unit.Mbps, Sizes: sizes}, rng.New(3))
	arr, _ := runModel(m, 100*unit.Mbps, 2*time.Second)
	saw := map[unit.Bytes]bool{}
	for _, a := range arr {
		saw[a.Size] = true
	}
	if !saw[40] || !saw[1500] {
		t.Errorf("modal sizes not sampled: %v", saw)
	}
}

func TestParetoOnOffRateConverges(t *testing.T) {
	m := ParetoOnOff(ParetoOnOffConfig{
		Stream: Stream{Rate: 25 * unit.Mbps},
		OffCap: 200,
	}, rng.New(4))
	_, ctr := runModel(m, 200*unit.Mbps, 30*time.Second)
	got := ctr.AvgRate(30 * time.Second)
	if math.Abs(got.MbpsOf()-25)/25 > 0.15 {
		t.Errorf("ParetoOnOff long-run rate = %v, want ~25Mbps (+-15%%)", got)
	}
}

func TestParetoOnOffDefaults(t *testing.T) {
	// Defaults fill in and don't panic.
	m := ParetoOnOff(ParetoOnOffConfig{Stream: Stream{Rate: 5 * unit.Mbps}}, rng.New(5))
	_, ctr := runModel(m, 100*unit.Mbps, time.Second)
	if ctr.Packets == 0 {
		t.Error("default-config ParetoOnOff emitted nothing")
	}
}

func TestParetoOnOffValidation(t *testing.T) {
	cases := []ParetoOnOffConfig{
		{Stream: Stream{Rate: 0}},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid config did not panic", i)
				}
			}()
			ParetoOnOff(cfg, rng.New(1))
		}()
	}
}

// windowVariance computes the variance of per-window arrival byte counts,
// the standard burstiness measure at a timescale.
func windowVariance(arr []offered, runFor, win time.Duration) float64 {
	var counts []float64
	for t := time.Duration(0); t+win <= runFor; t += win {
		var b unit.Bytes
		for _, a := range arr {
			if a.At >= t && a.At < t+win {
				b += a.Size
			}
		}
		counts = append(counts, float64(b))
	}
	var mean float64
	for _, c := range counts {
		mean += c
	}
	mean /= float64(len(counts))
	var v float64
	for _, c := range counts {
		v += (c - mean) * (c - mean)
	}
	return v / float64(len(counts)-1)
}

func TestBurstinessOrdering(t *testing.T) {
	// The premise of Figure 3: at equal mean rate, variability orders
	// CBR < Poisson < Pareto ON-OFF at a 10ms timescale.
	const runFor = 20 * time.Second
	const win = 10 * time.Millisecond
	mk := func(m Model) float64 {
		arr, _ := runModel(m, 200*unit.Mbps, runFor)
		return windowVariance(arr, runFor, win)
	}
	vCBR := mk(CBR(Stream{Rate: 25 * unit.Mbps}))
	vPoisson := mk(Poisson(Stream{Rate: 25 * unit.Mbps}, rng.New(6)))
	vPareto := mk(ParetoOnOff(ParetoOnOffConfig{Stream: Stream{Rate: 25 * unit.Mbps}, OffCap: 200}, rng.New(7)))
	if !(vCBR < vPoisson && vPoisson < vPareto) {
		t.Errorf("burstiness ordering violated: CBR=%g Poisson=%g Pareto=%g", vCBR, vPoisson, vPareto)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() int64 {
		s := sim.New()
		l := s.NewLink("l", 100*unit.Mbps, 0)
		m := ParetoOnOff(ParetoOnOffConfig{Stream: Stream{Rate: 30 * unit.Mbps}}, rng.New(99))
		ctr := feed(s, []*sim.Link{l}, m, 0, 5*time.Second)
		s.Run()
		return ctr.Packets
	}
	if a, b := run(), run(); a != b {
		t.Errorf("replay differs: %d vs %d packets", a, b)
	}
}

func TestCBRPanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CBR with zero rate did not panic")
		}
	}()
	CBR(Stream{})
}

func TestPoissonPanicsWithoutRand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Poisson without rand did not panic")
		}
	}()
	Poisson(Stream{Rate: unit.Mbps}, nil)
}

// TestFinishedSourceLeavesNothingPending: a finished source leaves no
// event behind, whatever its model — ParetoOnOff's bursts included. On
// a FIFO link the feed folds and schedules nothing at all; on a RED
// one it schedules a packet only once its process has returned it, and
// each packet costs two events: the feed's and the link's txDone.
func TestFinishedSourceLeavesNothingPending(t *testing.T) {
	const until = 100 * time.Millisecond
	cfg := Stream{Rate: 10 * unit.Mbps}
	for _, red := range []bool{false, true} {
		for name, m := range map[string]Model{
			"cbr":            CBR(cfg),
			"poisson":        Poisson(cfg, rng.New(1)),
			"paretoonoff":    ParetoOnOff(ParetoOnOffConfig{Stream: cfg}, rng.New(2)),
			"paretoarrivals": ParetoArrivals(cfg, 1.5, rng.New(3)),
		} {
			s := sim.New()
			// 12 µs a packet: the last one is through well before until.
			l := s.NewLink("l", unit.Gbps, time.Millisecond)
			perPacket := uint64(0)
			if red {
				name += "/red"
				l.SetDiscipline(sim.NewRED(sim.REDConfig{}, rng.New(4)))
				perPacket = 2
			}
			ctr := feed(s, []*sim.Link{l}, m, 0, until)
			s.RunUntil(until)
			if ctr.Packets < 20 || l.Forwarded() != ctr.Packets {
				t.Fatalf("%s: emitted %d packets, forwarded %d", name, ctr.Packets, l.Forwarded())
			}
			if n := s.Pending(); n != 0 {
				t.Errorf("%s: %d events pending after RunUntil(until), want 0", name, n)
			}
			if st := s.Stats(); st.Scheduled != perPacket*uint64(ctr.Packets) {
				t.Errorf("%s: %d events scheduled for %d packets, want %d a packet", name, st.Scheduled, ctr.Packets, perPacket)
			}
		}
	}
}
