package probe

import (
	"math"
	"testing"
	"time"

	"abw/internal/crosstraffic"
	"abw/internal/rng"
	"abw/internal/sim"
	"abw/internal/unit"
)

func TestSendOverSimIdlePath(t *testing.T) {
	// On an idle link, Ro must equal Ri and OWDs must be flat.
	s := sim.New()
	l := s.NewLink("l", 50*unit.Mbps, time.Millisecond)
	rec, err := SendOverSim(s, []*sim.Link{l}, Periodic(20*unit.Mbps, 1500, 50), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !rec.Complete() {
		t.Fatalf("lost %d packets on idle path", rec.LossCount())
	}
	if math.Abs(rec.Ratio()-1) > 1e-6 {
		t.Errorf("idle path Ro/Ri = %g, want 1", rec.Ratio())
	}
	owds := rec.OWDs()
	for i := 1; i < len(owds); i++ {
		if owds[i] != owds[0] {
			t.Fatalf("idle path OWD varies: %v vs %v", owds[i], owds[0])
		}
	}
}

func TestSendOverSimMatchesFluidModel(t *testing.T) {
	// With CBR cross traffic (the fluid limit), the measured Ro must
	// match Equation (8) closely: Ri=40, Ct=50, A=25 → Ro ≈ 30.77 Mbps.
	s := sim.New()
	l := s.NewLink("l", 50*unit.Mbps, 0)
	ct := crosstraffic.CBR(crosstraffic.Stream{Rate: 25 * unit.Mbps, Sizes: rng.FixedSize(200)})
	s.Feed([]*sim.Link{l}, sim.KindCross, 0, ct.Over(0, 2*time.Second).Next)
	rec, err := SendOverSim(s, []*sim.Link{l}, Periodic(40*unit.Mbps, 1500, 300), 500*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !rec.Complete() {
		t.Fatalf("lost %d packets", rec.LossCount())
	}
	want := 40.0 * 50 / 65 // Eq. (8)
	got := rec.OutputRate().MbpsOf()
	if math.Abs(got-want)/want > 0.03 {
		t.Errorf("Ro = %.2f Mbps, fluid model predicts %.2f", got, want)
	}
}

func TestSendOverSimBelowAvailBw(t *testing.T) {
	// Probing below A with small-packet CBR cross traffic: ratio ≈ 1.
	s := sim.New()
	l := s.NewLink("l", 50*unit.Mbps, 0)
	ct := crosstraffic.CBR(crosstraffic.Stream{Rate: 25 * unit.Mbps, Sizes: rng.FixedSize(200)})
	s.Feed([]*sim.Link{l}, sim.KindCross, 0, ct.Over(0, 2*time.Second).Next)
	rec, err := SendOverSim(s, []*sim.Link{l}, Periodic(15*unit.Mbps, 1500, 200), 500*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if ratio := rec.Ratio(); math.Abs(ratio-1) > 0.02 {
		t.Errorf("Ro/Ri below A = %g, want ~1", ratio)
	}
}

func TestSendOverSimOWDSlopeMatchesEq7(t *testing.T) {
	// Overloaded link: per-packet OWD increase ≈ Eq. (7).
	s := sim.New()
	l := s.NewLink("l", 50*unit.Mbps, 0)
	ct := crosstraffic.CBR(crosstraffic.Stream{Rate: 25 * unit.Mbps, Sizes: rng.FixedSize(100)})
	s.Feed([]*sim.Link{l}, sim.KindCross, 0, ct.Over(0, time.Second).Next)
	const n = 100
	rec, err := SendOverSim(s, []*sim.Link{l}, Periodic(40*unit.Mbps, 1500, n), 200*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	owds := rec.OWDs()
	slope := (owds[len(owds)-1] - owds[0]).Seconds() / float64(len(owds)-1)
	// Eq. (7): Δd = (L/Ct)(Ri−A)/Ri = (1500·8/50e6)·(15/40) = 90µs.
	want := 90e-6
	if math.Abs(slope-want)/want > 0.05 {
		t.Errorf("OWD slope = %.2fµs/pkt, Eq.(7) predicts %.2fµs", slope*1e6, want*1e6)
	}
}

// TestSendOverSimSendTimes: the record's send times are the stream's
// departures shifted to its start.
func TestSendOverSimSendTimes(t *testing.T) {
	const at = 1234567 * time.Nanosecond
	for name, sp := range durationSpecs(t) {
		deps, err := sp.Departures()
		if err != nil {
			continue
		}
		s := sim.New()
		l := s.NewLink("l", 100*unit.Mbps, time.Millisecond)
		rec, err := SendOverSim(s, []*sim.Link{l}, sp, at, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, d := range deps {
			if rec.Sent[i] != at+d {
				t.Errorf("%s: Sent[%d] %v, want %v", name, i, rec.Sent[i], at+d)
			}
		}
	}
}

func TestSendOverSimInvalidSpec(t *testing.T) {
	s := sim.New()
	l := s.NewLink("l", 50*unit.Mbps, 0)
	if _, err := SendOverSim(s, []*sim.Link{l}, StreamSpec{}, 0, 1); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestSendOverSimRecordsLossWithTinyBuffer(t *testing.T) {
	s := sim.New()
	l := s.NewLink("l", 10*unit.Mbps, 0)
	l.SetBuffer(1500)
	rec, err := SendOverSim(s, []*sim.Link{l}, Periodic(100*unit.Mbps, 1500, 20), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if rec.LossCount() == 0 {
		t.Error("expected losses with a 1-packet buffer at 10x overload")
	}
	if rec.LossCount() >= 20 {
		t.Error("some packets should still arrive")
	}
}
