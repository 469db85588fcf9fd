package sim

import (
	"math"
	"testing"
	"time"

	"abw/internal/rng"
	"abw/internal/unit"
)

// injectCBR schedules n packets of size bytes at a constant rate onto
// the link, starting at time start.
func injectCBR(s *Sim, l *Link, n int, size unit.Bytes, rate unit.Rate, start time.Duration) {
	gap := unit.GapFor(size, rate)
	for i := 0; i < n; i++ {
		p := s.NewPacket()
		p.Size = size
		p.Kind = KindCross
		p.Route = []*Link{l}
		s.Inject(p, start+time.Duration(i)*gap)
	}
}

func TestREDValidation(t *testing.T) {
	r := rng.New(1)
	for name, fn := range map[string]func(){
		"thresholds":  func() { NewRED(REDConfig{MinTh: 10, MaxTh: 5}, r) },
		"maxp":        func() { NewRED(REDConfig{MaxP: 1.5}, r) },
		"weight":      func() { NewRED(REDConfig{Weight: -0.1}, r) },
		"nil rng":     func() { NewRED(REDConfig{}, nil) },
		"codel":       func() { NewCoDel(CoDelConfig{Target: -time.Millisecond}) },
		"bern range":  func() { NewBernoulliLoss(1.0, r) },
		"bern rng":    func() { NewBernoulliLoss(0.1, nil) },
		"ge loss":     func() { NewGilbertElliott(GilbertElliottConfig{LossBad: 1.0}, r) },
		"ge rng":      func() { NewGilbertElliott(GilbertElliottConfig{}, nil) },
		"jitter":      func() { New().NewLink("l", 1*unit.Mbps, 0).SetJitter(-time.Millisecond, r) },
		"jitter rng":  func() { New().NewLink("l", 1*unit.Mbps, 0).SetJitter(time.Millisecond, nil) },
		"cap empty":   func() { New().NewLink("l", 1*unit.Mbps, 0).SetCapacitySchedule(nil) },
		"cap start":   func() { MeanCapacity([]CapacityStep{{At: time.Second, Rate: 1}}, 0, time.Minute) },
		"cap order":   func() { MeanCapacity([]CapacityStep{{0, 1 * unit.Mbps}, {0, 2 * unit.Mbps}}, 0, time.Minute) },
		"cap rate":    func() { MeanCapacity([]CapacityStep{{0, 0}}, 0, time.Minute) },
		"cap horizon": func() { MeanCapacity([]CapacityStep{{0, 1 * unit.Mbps}}, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid config did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestREDDropsUnderCongestion drives RED well above MaxTh and checks it
// sheds load before the physical buffer forces tail drops, while an
// uncongested link sees no drops at all.
func TestREDDropsUnderCongestion(t *testing.T) {
	s := New()
	l := s.NewLink("red", 10*unit.Mbps, 0)
	red := NewRED(REDConfig{}, rng.New(7))
	l.SetDiscipline(red)
	injectCBR(s, l, 2000, 1500, 15*unit.Mbps, 0) // 1.5x overload, unbounded buffer
	s.Run()
	if l.Dropped() == 0 {
		t.Error("RED dropped nothing under sustained 1.5x overload")
	}
	if got := l.Forwarded() + l.Dropped(); got != 2000 {
		t.Errorf("forwarded+dropped = %d, want 2000", got)
	}

	s2 := New()
	l2 := s2.NewLink("red", 10*unit.Mbps, 0)
	l2.SetDiscipline(NewRED(REDConfig{}, rng.New(7)))
	injectCBR(s2, l2, 2000, 1500, 3*unit.Mbps, 0) // 30% load
	s2.Run()
	if l2.Dropped() != 0 {
		t.Errorf("RED dropped %d packets on an uncongested link", l2.Dropped())
	}
}

func TestREDIdleDecay(t *testing.T) {
	s := New()
	l := s.NewLink("red", 10*unit.Mbps, 0)
	red := NewRED(REDConfig{}, rng.New(3))
	l.SetDiscipline(red)
	// Congest, then go idle for a long time, then send one packet: the
	// average must have decayed back below MinTh so it is admitted.
	injectCBR(s, l, 500, 1500, 40*unit.Mbps, 0)
	s.Run()
	avgAfterBurst := red.AvgQueue()
	if avgAfterBurst < float64(red.cfg.MinTh) {
		t.Fatalf("avg %.2f after 4x overload below MinTh; congestion phase too weak", avgAfterBurst)
	}
	p := s.NewPacket()
	p.Size = 1500
	p.Route = []*Link{l}
	s.Inject(p, s.Now()+10*time.Second)
	s.Run()
	if red.AvgQueue() >= avgAfterBurst/2 {
		t.Errorf("avg %.2f did not decay during 10s idle (was %.2f)", red.AvgQueue(), avgAfterBurst)
	}
	if l.Lost() != 0 {
		t.Errorf("lost = %d without a loss model", l.Lost())
	}
}

func TestCoDelDropsOnStandingQueue(t *testing.T) {
	s := New()
	l := s.NewLink("codel", 10*unit.Mbps, 0)
	l.SetDiscipline(NewCoDel(CoDelConfig{}))
	// 1.5x overload for 3 seconds: sojourn grows far beyond the 5 ms
	// target, so CoDel must enter its dropping state.
	injectCBR(s, l, 2500, 1500, 15*unit.Mbps, 0)
	s.Run()
	if l.Dropped() == 0 {
		t.Error("CoDel dropped nothing with a multi-second standing queue")
	}
	if got := l.Forwarded() + l.Dropped(); got != 2500 {
		t.Errorf("forwarded+dropped = %d, want 2500", got)
	}

	// Below capacity the sojourn never exceeds target: no drops.
	s2 := New()
	l2 := s2.NewLink("codel", 10*unit.Mbps, 0)
	l2.SetDiscipline(NewCoDel(CoDelConfig{}))
	injectCBR(s2, l2, 2500, 1500, 8*unit.Mbps, 0)
	s2.Run()
	if l2.Dropped() != 0 {
		t.Errorf("CoDel dropped %d packets with no standing queue", l2.Dropped())
	}
}

func TestBernoulliLossRateAndAccounting(t *testing.T) {
	const n, p = 20000, 0.03
	s := New()
	l := s.NewLink("lossy", 100*unit.Mbps, 0)
	l.SetLoss(NewBernoulliLoss(p, rng.New(11)))
	var dropCalls int64
	for i := 0; i < n; i++ {
		pk := s.NewPacket()
		pk.Size = 1000
		pk.Route = []*Link{l}
		pk.OnDrop = func(*Packet, *Link, time.Duration) { dropCalls++ }
		s.Inject(pk, time.Duration(i)*time.Millisecond)
	}
	s.Run()
	if got := l.Forwarded() + l.Lost(); got != n {
		t.Errorf("forwarded+lost = %d, want %d", got, n)
	}
	if l.Dropped() != 0 {
		t.Errorf("loss-model kills leaked into Dropped: %d", l.Dropped())
	}
	if dropCalls != l.Lost() {
		t.Errorf("OnDrop fired %d times for %d losses", dropCalls, l.Lost())
	}
	if l.LostBytes() != unit.Bytes(l.Lost())*1000 {
		t.Errorf("LostBytes = %d for %d 1000B losses", l.LostBytes(), l.Lost())
	}
	rate := float64(l.Lost()) / n
	if math.Abs(rate-p) > 0.01 {
		t.Errorf("empirical loss rate %.4f far from %.2f", rate, p)
	}
}

func TestGilbertElliottBurstsAndMeanRate(t *testing.T) {
	cfg := GilbertElliottConfig{PGoodBad: 0.01, PBadGood: 0.2, LossBad: 0.6}
	ge := NewGilbertElliott(cfg, rng.New(5))
	want := (0.01 / 0.21) * 0.6
	if got := ge.MeanRate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanRate = %g, want %g", got, want)
	}
	// Empirical rate over a long stream approaches the stationary rate,
	// and identical seeds give identical loss sequences.
	const n = 200000
	losses, runs, cur := 0, []int{}, 0
	ge2 := NewGilbertElliott(cfg, rng.New(5))
	for i := 0; i < n; i++ {
		a := ge.Lose()
		if b := ge2.Lose(); a != b {
			t.Fatalf("same-seed Gilbert–Elliott diverged at packet %d", i)
		}
		if a {
			losses++
			cur++
		} else if cur > 0 {
			runs = append(runs, cur)
			cur = 0
		}
	}
	rate := float64(losses) / n
	if math.Abs(rate-want) > 0.005 {
		t.Errorf("empirical rate %.4f far from stationary %.4f", rate, want)
	}
	// Burstiness: consecutive-loss runs must be longer on average than
	// an independent process at the same rate would produce (1/(1-p)).
	var sum int
	for _, r := range runs {
		sum += r
	}
	meanRun := float64(sum) / float64(len(runs))
	iid := 1 / (1 - want)
	if meanRun < 1.2*iid {
		t.Errorf("mean loss-run %.2f not meaningfully burstier than i.i.d. %.2f", meanRun, iid)
	}
}

func TestJitterReordersBoundedly(t *testing.T) {
	const n = 500
	s := New()
	// Fast link so transmission gaps are small relative to the jitter
	// bound: overtakes must happen.
	l := s.NewLink("jit", 1000*unit.Mbps, 5*time.Millisecond)
	l.SetJitter(2*time.Millisecond, rng.New(9))
	var order []int
	var times []time.Duration
	for i := 0; i < n; i++ {
		p := s.NewPacket()
		p.Size = 1500
		p.Seq = i
		p.Route = []*Link{l}
		p.OnArrive = func(p *Packet, at time.Duration) {
			order = append(order, p.Seq)
			times = append(times, at)
		}
		s.Inject(p, time.Duration(i)*20*time.Microsecond)
	}
	s.Run()
	if len(order) != n {
		t.Fatalf("delivered %d packets, want %d", len(order), n)
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
		if times[i] < times[i-1] {
			t.Fatalf("delivery times went backwards at %d", i)
		}
	}
	if inversions == 0 {
		t.Error("no reordering with jitter >> inter-packet gap")
	}
	// Bounded: a packet can be displaced at most jitter/gap positions.
	maxDisp := 0
	for pos, seq := range order {
		if d := seq - pos; d > maxDisp {
			maxDisp = d
		}
	}
	bound := int(2*time.Millisecond/(20*time.Microsecond)) + 1
	if maxDisp > bound {
		t.Errorf("displacement %d exceeds jitter bound %d positions", maxDisp, bound)
	}

	// Same seed, same schedule: bit-identical delivery order.
	s2 := New()
	l2 := s2.NewLink("jit", 1000*unit.Mbps, 5*time.Millisecond)
	l2.SetJitter(2*time.Millisecond, rng.New(9))
	var order2 []int
	for i := 0; i < n; i++ {
		p := s2.NewPacket()
		p.Size = 1500
		p.Seq = i
		p.Route = []*Link{l2}
		p.OnArrive = func(p *Packet, _ time.Duration) { order2 = append(order2, p.Seq) }
		s2.Inject(p, time.Duration(i)*20*time.Microsecond)
	}
	s2.Run()
	for i := range order {
		if order[i] != order2[i] {
			t.Fatalf("same-seed jitter delivery order diverged at %d", i)
		}
	}
}

func TestMeanCapacityAndIntegral(t *testing.T) {
	steps := []CapacityStep{
		{0, 10 * unit.Mbps},
		{10 * time.Second, 2 * unit.Mbps},
		{20 * time.Second, 6 * unit.Mbps},
	}
	// 10s@10 + 10s@2 + 10s@6 over 30s = 6 Mbps mean.
	if got, want := MeanCapacity(steps, 0, 30*time.Second), 6*unit.Mbps; math.Abs(float64(got-want)) > 1 {
		t.Errorf("MeanCapacity = %v, want %v", got, want)
	}
	// Last step extends: over 40s mean = (100+20+60+60)/40 = 6 Mbps.
	if got, want := MeanCapacity(steps, 0, 40*time.Second), 6*unit.Mbps; math.Abs(float64(got-want)) > 1 {
		t.Errorf("MeanCapacity(40s) = %v, want %v", got, want)
	}
	// Integral across a boundary: [5s, 15s) = 5s@10 + 5s@2 = 60 Mbit.
	if got, want := capIntegralBits(steps, 5*time.Second, 15*time.Second), 60e6; math.Abs(got-want) > 1 {
		t.Errorf("capIntegralBits = %g, want %g", got, want)
	}
	if got := capIntegralBits(steps, 15*time.Second, 15*time.Second); got != 0 {
		t.Errorf("empty-window integral = %g, want 0", got)
	}
	// The mean over a window is its integral over its length.
	if got, want := MeanCapacity(steps, 5*time.Second, 15*time.Second), 6*unit.Mbps; math.Abs(float64(got-want)) > 1 {
		t.Errorf("MeanCapacity(5s, 15s) = %v, want %v", got, want)
	}
}

func TestCapacityScheduleChangesServiceRate(t *testing.T) {
	s := New()
	l := s.NewLink("var", 10*unit.Mbps, 0)
	l.SetCapacitySchedule([]CapacityStep{
		{0, 10 * unit.Mbps},
		{time.Second, 1 * unit.Mbps},
	})
	if l.Capacity != 10*unit.Mbps {
		t.Fatalf("initial capacity %v, want 10 Mbps", l.Capacity)
	}
	var arrivals []time.Duration
	for i, at := range []time.Duration{0, 1500 * time.Millisecond} {
		p := s.NewPacket()
		p.Size = 1500
		p.Seq = i
		p.Route = []*Link{l}
		p.OnArrive = func(_ *Packet, at time.Duration) { arrivals = append(arrivals, at) }
		s.Inject(p, at)
	}
	s.Run()
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(arrivals))
	}
	// First packet at 10 Mbps: 1500B = 1.2 ms. Second starts at 1.5 s
	// under the 1 Mbps step: 12 ms.
	if want := 1200 * time.Microsecond; arrivals[0] != want {
		t.Errorf("fast-phase delivery at %v, want %v", arrivals[0], want)
	}
	if want := 1500*time.Millisecond + 12*time.Millisecond; arrivals[1] != want {
		t.Errorf("slow-phase delivery at %v, want %v", arrivals[1], want)
	}
	if got := l.CapacitySchedule(); len(got) != 2 {
		t.Errorf("CapacitySchedule returned %d steps, want 2", len(got))
	}
}

func TestCapacityScheduleAfterStartPanics(t *testing.T) {
	s := New()
	l := s.NewLink("var", 10*unit.Mbps, 0)
	s.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("mid-run SetCapacitySchedule did not panic")
			}
		}()
		l.SetCapacitySchedule([]CapacityStep{{0, 1 * unit.Mbps}})
	})
	s.Run()
}
