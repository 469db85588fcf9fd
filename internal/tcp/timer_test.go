package tcp

import (
	"testing"
	"time"

	"abw/internal/sim"
	"abw/internal/unit"
)

func TestRTOFiresOnTotalLoss(t *testing.T) {
	// A 1-byte buffer cannot even hold one queued segment during
	// transmission bursts; force the very first flight to lose its tail
	// and verify the RTO path recovers the transfer.
	s := sim.New()
	fwd := s.NewLink("bottleneck", 2*unit.Mbps, 10*time.Millisecond)
	fwd.SetBuffer(1)
	rev := s.NewLink("reverse", unit.Gbps, 10*time.Millisecond)
	c, err := New(s, []*sim.Link{fwd}, []*sim.Link{rev}, 1, Config{RcvWnd: 8, MaxBytes: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0)
	s.RunUntil(2 * time.Minute)
	if !c.Done() {
		t.Fatalf("transfer stuck: acked %d bytes, %d timeouts", c.AckedBytes(), c.Timeouts())
	}
	if c.Timeouts() == 0 {
		t.Error("expected at least one RTO with a 1-byte buffer")
	}
}

func TestRTOBackoffResetsOnProgress(t *testing.T) {
	s := sim.New()
	fwd := s.NewLink("bottleneck", 10*unit.Mbps, 10*time.Millisecond)
	fwd.SetBuffer(6000)
	rev := s.NewLink("reverse", unit.Gbps, 10*time.Millisecond)
	c, err := New(s, []*sim.Link{fwd}, []*sim.Link{rev}, 1, Config{RcvWnd: 64})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0)
	s.RunUntil(20 * time.Second)
	// After 20s of a functioning (if lossy) connection the backoff must
	// not be pinned at its cap: progress resets it.
	if c.rtoBackoff >= 6 {
		t.Errorf("rtoBackoff stuck at cap: %d", c.rtoBackoff)
	}
	if c.AckedBytes() == 0 {
		t.Error("no progress at all")
	}
}

func TestRTOGrowsWithBackoff(t *testing.T) {
	s := sim.New()
	fwd := s.NewLink("l", 10*unit.Mbps, time.Millisecond)
	c, err := New(s, []*sim.Link{fwd}, nil, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := c.rto()
	c.rtoBackoff = 3
	if got := c.rto(); got != base<<3 {
		t.Errorf("rto with backoff 3 = %v, want %v", got, base<<3)
	}
}

func TestRTOUsesSRTT(t *testing.T) {
	s := sim.New()
	fwd := s.NewLink("l", 10*unit.Mbps, time.Millisecond)
	c, err := New(s, []*sim.Link{fwd}, nil, 1, Config{RTOMin: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.updateRTT(0.100) // first sample: srtt=100ms, rttvar=50ms
	want := time.Duration((0.100 + 4*0.050) * 1e9)
	if got := c.rto(); got != want {
		t.Errorf("rto = %v, want %v (srtt + 4*rttvar)", got, want)
	}
}

func TestWindowNeverBelowOneSegment(t *testing.T) {
	s := sim.New()
	fwd := s.NewLink("l", 10*unit.Mbps, time.Millisecond)
	c, err := New(s, []*sim.Link{fwd}, nil, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.cwnd = 0.3
	if got := c.window(); got != 1 {
		t.Errorf("window = %d, want floor of 1", got)
	}
}

func TestAckToDoneConnIgnored(t *testing.T) {
	s := sim.New()
	fwd := s.NewLink("l", 10*unit.Mbps, time.Millisecond)
	c, err := New(s, []*sim.Link{fwd}, nil, 1, Config{MaxBytes: 1460})
	if err != nil {
		t.Fatal(err)
	}
	c.done = true
	c.onAck(5) // must not panic or mutate
	if c.highestAck != 0 {
		t.Error("ack processed on a done connection")
	}
}

func TestTotalSegmentsRounding(t *testing.T) {
	s := sim.New()
	fwd := s.NewLink("l", 10*unit.Mbps, time.Millisecond)
	c, err := New(s, []*sim.Link{fwd}, nil, 1, Config{MaxBytes: 1461})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.totalSegments(); got != 2 {
		t.Errorf("totalSegments(1461B) = %d, want 2", got)
	}
	c2, err := New(s, []*sim.Link{fwd}, nil, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.totalSegments(); got != -1 {
		t.Errorf("persistent transfer totalSegments = %d, want -1", got)
	}
}
