package tcp

import (
	"math"
	"testing"
	"time"

	"abw/internal/crosstraffic"
	"abw/internal/rng"
	"abw/internal/sim"
	"abw/internal/unit"
)

// testbed builds the standard dumbbell: one bottleneck forward link and
// an uncongested reverse link.
type testbed struct {
	s        *sim.Sim
	fwd, rev *sim.Link
}

func newTestbed(capacity unit.Rate, bufPkts int, rtt time.Duration) *testbed {
	s := sim.New()
	fwd := s.NewLink("bottleneck", capacity, rtt/2)
	if bufPkts > 0 {
		fwd.SetBuffer(unit.Bytes(bufPkts) * 1500)
	}
	rev := s.NewLink("reverse", unit.Gbps, rtt/2)
	return &testbed{s: s, fwd: fwd, rev: rev}
}

func (tb *testbed) conn(t *testing.T, cfg Config) *Conn {
	t.Helper()
	c, err := New(tb.s, []*sim.Link{tb.fwd}, []*sim.Link{tb.rev}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// goodput runs the testbed to from and then to to, and returns in Mbps
// what each connection acked in between over the window's length: the
// measurement Figure 7 makes of its bulk flow.
func (tb *testbed) goodput(from, to time.Duration, conns ...*Conn) []float64 {
	before := make([]unit.Bytes, len(conns))
	tb.s.RunUntil(from)
	for i, c := range conns {
		before[i] = c.AckedBytes()
	}
	tb.s.RunUntil(to)
	out := make([]float64, len(conns))
	for i, c := range conns {
		out[i] = unit.RateOf(c.AckedBytes()-before[i], to-from).MbpsOf()
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	tb := newTestbed(10*unit.Mbps, 0, 10*time.Millisecond)
	cases := []Config{
		{RcvWnd: -1},
		{maxBytes: -1},
	}
	for i, cfg := range cases {
		if _, err := New(tb.s, []*sim.Link{tb.fwd}, nil, 1, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(nil, []*sim.Link{tb.fwd}, nil, 1, Config{}); err == nil {
		t.Error("nil sim accepted")
	}
	if _, err := New(tb.s, nil, nil, 1, Config{}); err == nil {
		t.Error("empty route accepted")
	}
}

func TestBulkSaturatesIdleLink(t *testing.T) {
	// Big window, ample buffer: throughput approaches link capacity
	// (minus header overhead ≈ 2.7%).
	tb := newTestbed(10*unit.Mbps, 0, 20*time.Millisecond)
	c := tb.conn(t, Config{RcvWnd: 200})
	c.Start(0)
	got := tb.goodput(2*time.Second, 10*time.Second, c)[0]
	want := 10 * 1460.0 / 1500.0
	if math.Abs(got-want) > 0.5 {
		t.Errorf("bulk throughput = %.2f Mbps, want ~%.2f", got, want)
	}
	if c.Retransmits() != 0 {
		t.Errorf("retransmits on a lossless path: %d", c.Retransmits())
	}
}

func TestWindowLimitedThroughput(t *testing.T) {
	// Small Wr on a fat link: rate = Wr·MSS/RTT, the size-limited regime
	// of Figure 7.
	rtt := 40 * time.Millisecond
	tb := newTestbed(100*unit.Mbps, 0, rtt)
	const wr = 10
	c := tb.conn(t, Config{RcvWnd: wr})
	c.Start(0)
	got := tb.goodput(2*time.Second, 10*time.Second, c)[0]
	want := float64(wr) * 1460 * 8 / rtt.Seconds() / 1e6 // ≈ 2.92 Mbps
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("window-limited throughput = %.2f Mbps, want ~%.2f", got, want)
	}
}

func TestThroughputScalesWithWindowUntilSaturation(t *testing.T) {
	rtt := 40 * time.Millisecond
	prev := 0.0
	for _, wr := range []int{4, 8, 16, 32} {
		tb := newTestbed(20*unit.Mbps, 0, rtt)
		c := tb.conn(t, Config{RcvWnd: wr})
		c.Start(0)
		got := tb.goodput(2*time.Second, 8*time.Second, c)[0]
		if got < prev-0.2 {
			t.Errorf("Wr=%d: throughput %.2f fell below Wr/2 value %.2f", wr, got, prev)
		}
		prev = got
	}
}

func TestSlowStartThenCongestionAvoidance(t *testing.T) {
	// With a tiny buffer the connection must lose, recover, and still
	// deliver data; cwnd must have been cut at least once.
	tb := newTestbed(10*unit.Mbps, 10, 20*time.Millisecond)
	c := tb.conn(t, Config{RcvWnd: 400})
	c.Start(0)
	got := tb.goodput(2*time.Second, 10*time.Second, c)[0]
	if c.Retransmits() == 0 {
		t.Error("expected losses and retransmissions with a 10-packet buffer")
	}
	if got < 5 {
		t.Errorf("post-loss throughput = %.2f Mbps, want > 5 (recovery works)", got)
	}
	if got > 9.8 {
		t.Errorf("throughput %.2f exceeds capacity", got)
	}
}

func TestSizeLimitedTransferCompletes(t *testing.T) {
	tb := newTestbed(10*unit.Mbps, 0, 10*time.Millisecond)
	c := tb.conn(t, Config{RcvWnd: 50, maxBytes: 100_000})
	c.Start(0)
	tb.s.RunUntil(30 * time.Second)
	if !c.Done() {
		t.Fatal("size-limited transfer did not complete")
	}
	if got := c.AckedBytes(); got < 100_000 {
		t.Errorf("acked %d bytes, want >= 100000", got)
	}
}

func TestTransferCompletesDespiteLoss(t *testing.T) {
	tb := newTestbed(5*unit.Mbps, 5, 20*time.Millisecond)
	c := tb.conn(t, Config{RcvWnd: 100, maxBytes: 300_000})
	c.Start(0)
	tb.s.RunUntil(60 * time.Second)
	if !c.Done() {
		t.Fatalf("lossy transfer did not complete (acked %d)", c.AckedBytes())
	}
}

func TestTwoFlowsShareRoughlyFairly(t *testing.T) {
	tb := newTestbed(10*unit.Mbps, 40, 20*time.Millisecond)
	a, err := New(tb.s, []*sim.Link{tb.fwd}, []*sim.Link{tb.rev}, 1, Config{RcvWnd: 200})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(tb.s, []*sim.Link{tb.fwd}, []*sim.Link{tb.rev}, 2, Config{RcvWnd: 200})
	if err != nil {
		t.Fatal(err)
	}
	a.Start(0)
	b.Start(100 * time.Millisecond)
	got := tb.goodput(5*time.Second, 30*time.Second, a, b)
	ta, tbr := got[0], got[1]
	sum := ta + tbr
	if sum < 8.5 {
		t.Errorf("two flows total %.2f Mbps, want near capacity", sum)
	}
	ratio := ta / tbr
	if ratio < 1 {
		ratio = 1 / ratio
	}
	if ratio > 3 {
		t.Errorf("unfair split: %.2f vs %.2f Mbps", ta, tbr)
	}
}

func TestUnresponsiveCrossTrafficBoundsThroughput(t *testing.T) {
	// 35 Mbps unresponsive cross traffic on a 50 Mbps link: TCP gets at
	// most ~avail-bw (15 Mbps) once buffers are bounded.
	tb := newTestbed(50*unit.Mbps, 60, 40*time.Millisecond)
	ct := crosstraffic.Poisson(crosstraffic.Stream{Rate: 35 * unit.Mbps}, rng.New(1))
	tb.s.Feed([]*sim.Link{tb.fwd}, sim.KindCross, 0, ct.Over(0, 30*time.Second).Next)
	c := tb.conn(t, Config{RcvWnd: 400})
	c.Start(time.Second)
	got := tb.goodput(5*time.Second, 30*time.Second, c)[0]
	if got > 17 {
		t.Errorf("throughput %.2f Mbps exceeds avail-bw 15 against unresponsive traffic", got)
	}
	if got < 6 {
		t.Errorf("throughput %.2f Mbps implausibly low", got)
	}
}

func TestResponsiveCrossTrafficYieldsMoreThanAvailBw(t *testing.T) {
	// The heart of Figure 7: with window-limited TCP cross traffic the
	// bulk transfer can exceed the nominal avail-bw, because the "cross
	// traffic" cannot use more than its window while our transfer can.
	tb := newTestbed(50*unit.Mbps, 100, 40*time.Millisecond)
	// Cross: 5 window-limited TCPs, each ~7 Mbps when alone → A ≈ 15.
	for i := 0; i < 5; i++ {
		cc, err := New(tb.s, []*sim.Link{tb.fwd}, []*sim.Link{tb.rev}, 100+i, Config{RcvWnd: 24})
		if err != nil {
			t.Fatal(err)
		}
		cc.Start(time.Duration(i) * 50 * time.Millisecond)
	}
	c := tb.conn(t, Config{RcvWnd: 400})
	c.Start(time.Second)
	got := tb.goodput(5*time.Second, 30*time.Second, c)[0]
	if got < 15 {
		t.Errorf("against window-limited cross traffic throughput = %.2f Mbps, want > nominal avail-bw 15", got)
	}
}

func TestRTTEstimation(t *testing.T) {
	tb := newTestbed(10*unit.Mbps, 0, 30*time.Millisecond)
	c := tb.conn(t, Config{RcvWnd: 4})
	c.Start(0)
	tb.s.RunUntil(5 * time.Second)
	if c.srtt < 0.029 || c.srtt > 0.05 {
		t.Errorf("srtt = %.4fs, want ~0.03-0.05", c.srtt)
	}
}

func TestMiceValidation(t *testing.T) {
	if _, err := NewMice(MiceConfig{}); err == nil {
		t.Error("zero load accepted")
	}
	m, err := NewMice(MiceConfig{OfferedLoad: 10 * unit.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	tb := newTestbed(50*unit.Mbps, 0, 10*time.Millisecond)
	if err := m.Run(nil, []*sim.Link{tb.fwd}, nil, 0, time.Second, 0, rng.New(1)); err == nil {
		t.Error("nil sim accepted")
	}
	if err := m.Run(tb.s, []*sim.Link{tb.fwd}, nil, 0, time.Second, 0, nil); err == nil {
		t.Error("nil rand accepted")
	}
}

func TestMiceOfferedLoad(t *testing.T) {
	tb := newTestbed(100*unit.Mbps, 0, 20*time.Millisecond)
	m, err := NewMice(MiceConfig{OfferedLoad: 20 * unit.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(tb.s, []*sim.Link{tb.fwd}, []*sim.Link{tb.rev}, 0, 20*time.Second, 1000, rng.New(2)); err != nil {
		t.Fatal(err)
	}
	tb.s.RunUntil(25 * time.Second)
	rate := unit.RateOf(m.AckedBytes(), 20*time.Second).MbpsOf()
	// Heavy-tailed flow sizes converge slowly; ±40% over 20 s.
	if rate < 12 || rate > 28 {
		t.Errorf("mice delivered %.2f Mbps, want ~20±40%%", rate)
	}
	if m.Flows() < 20 {
		t.Errorf("only %d flows started", m.Flows())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() unit.Bytes {
		tb := newTestbed(20*unit.Mbps, 30, 20*time.Millisecond)
		ct := crosstraffic.Poisson(crosstraffic.Stream{Rate: 10 * unit.Mbps}, rng.New(5))
		tb.s.Feed([]*sim.Link{tb.fwd}, sim.KindCross, 0, ct.Over(0, 10*time.Second).Next)
		c, err := New(tb.s, []*sim.Link{tb.fwd}, []*sim.Link{tb.rev}, 1, Config{RcvWnd: 100})
		if err != nil {
			t.Fatal(err)
		}
		c.Start(0)
		tb.s.RunUntil(10 * time.Second)
		return c.AckedBytes()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("replay differs: %d vs %d bytes", a, b)
	}
}

// TestWindowLaw is the window law below the knee: one flow alone on a
// path whose capacity is well above Wr·MSS/RTT delivers Wr segments a
// round trip, within one segment a round trip, with no retransmission.
func TestWindowLaw(t *testing.T) {
	const rtt = 40 * time.Millisecond
	tol := unit.RateOf(mss, rtt).MbpsOf() // one segment per RTT: 0.292 Mbps
	for _, wr := range []int{2, 4, 8, 16, 32, 64} {
		law := unit.RateOf(unit.Bytes(wr)*mss, rtt)
		tb := newTestbed(4*law+10*unit.Mbps, 0, rtt)
		c := tb.conn(t, Config{RcvWnd: wr})
		c.Start(0)
		got := tb.goodput(5*time.Second, 20*time.Second, c)[0]
		t.Logf("Wr=%d: %.3f Mbps, law %.3f", wr, got, law.MbpsOf())
		if math.Abs(got-law.MbpsOf()) > tol {
			t.Errorf("Wr=%d: goodput %.3f Mbps, want %.3f ± %.3f (Wr·MSS/RTT)", wr, got, law.MbpsOf(), tol)
		}
		if n := c.Retransmits(); n != 0 {
			t.Errorf("Wr=%d: %d retransmits with no cross traffic and an unbounded buffer", wr, n)
		}
	}
}

// TestBulkAllocationsDoNotGrowWithSegments pins that segments and ACKs
// ride the simulator's packet pool and the connection's long-lived
// callbacks: a transfer ten times longer allocates no more than a short
// one, so nothing (packet, closure, map entry, record) is per segment.
func TestBulkAllocationsDoNotGrowWithSegments(t *testing.T) {
	allocs := func(segments int) float64 {
		return testing.AllocsPerRun(3, func() {
			tb := newTestbed(10*unit.Mbps, 0, 20*time.Millisecond)
			c := tb.conn(t, Config{RcvWnd: 16, maxBytes: unit.Bytes(segments) * mss})
			c.Start(0)
			tb.s.RunUntil(time.Minute)
			if !c.Done() {
				t.Fatalf("%d-segment transfer did not complete", segments)
			}
		})
	}
	short, long := allocs(200), allocs(2000)
	t.Logf("%.0f allocations for 200 segments, %.0f for 2000", short, long)
	if long > short {
		t.Errorf("2000 segments allocate %.0f more times than 200: a per-segment allocation", long-short)
	}
}
