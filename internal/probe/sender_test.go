package probe_test

import (
	"math"
	"testing"
	"time"

	"abw/internal/core"
	"abw/internal/crosstraffic"
	"abw/internal/probe"
	"abw/internal/rng"
	"abw/internal/sim"
	"abw/internal/unit"
)

func TestSendOverSimIdlePath(t *testing.T) {
	// On an idle link, Ro must equal Ri and OWDs must be flat.
	s := sim.New()
	l := s.NewLink("l", 50*unit.Mbps, time.Millisecond)
	rec, err := core.NewSimTransport(s, sim.MustPath(l)).Probe(probe.Periodic(20*unit.Mbps, 1500, 50))
	if err != nil {
		t.Fatal(err)
	}
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

// cbrHop is one 50 Mbps link carrying CBR cross traffic of the given
// packet size at 25 Mbps, and a transport over it whose first stream
// starts at `at`.
func cbrHop(size unit.Bytes, horizon, at time.Duration) *core.SimTransport {
	s := sim.New()
	l := s.NewLink("l", 50*unit.Mbps, 0)
	ct := crosstraffic.CBR(crosstraffic.Stream{Rate: 25 * unit.Mbps, Sizes: rng.FixedSize(size)})
	s.Feed([]*sim.Link{l}, sim.KindCross, 0, ct.Over(0, horizon).Next)
	tr := core.NewSimTransport(s, sim.MustPath(l))
	tr.Spacing = at
	return tr
}

func TestSendOverSimMatchesFluidModel(t *testing.T) {
	// With CBR cross traffic (the fluid limit), the measured Ro must
	// match Equation (8) closely: Ri=40, Ct=50, A=25 → Ro ≈ 30.77 Mbps.
	rec, err := cbrHop(200, 2*time.Second, 500*time.Millisecond).Probe(probe.Periodic(40*unit.Mbps, 1500, 300))
	if err != nil {
		t.Fatal(err)
	}
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
	rec, err := cbrHop(200, 2*time.Second, 500*time.Millisecond).Probe(probe.Periodic(15*unit.Mbps, 1500, 200))
	if err != nil {
		t.Fatal(err)
	}
	if ratio := rec.Ratio(); math.Abs(ratio-1) > 0.02 {
		t.Errorf("Ro/Ri below A = %g, want ~1", ratio)
	}
}

func TestSendOverSimOWDSlopeMatchesEq7(t *testing.T) {
	// Overloaded link: per-packet OWD increase ≈ Eq. (7).
	rec, err := cbrHop(100, time.Second, 200*time.Millisecond).Probe(probe.Periodic(40*unit.Mbps, 1500, 100))
	if err != nil {
		t.Fatal(err)
	}
	owds := rec.OWDs()
	slope := (owds[len(owds)-1] - owds[0]).Seconds() / float64(len(owds)-1)
	// Eq. (7): Δd = (L/Ct)(Ri−A)/Ri = (1500·8/50e6)·(15/40) = 90µs.
	want := 90e-6
	if math.Abs(slope-want)/want > 0.05 {
		t.Errorf("OWD slope = %.2fµs/pkt, Eq.(7) predicts %.2fµs", slope*1e6, want*1e6)
	}
}

// TestSendOverSimSendTimes: the record's send times are the stream's
// departures shifted to its start. A zero Spacing means 10 ms, so the
// start is set explicitly.
func TestSendOverSimSendTimes(t *testing.T) {
	const at = 1234567 * time.Nanosecond
	for name, sp := range probe.DurationSpecs(t) {
		deps, err := sp.Departures()
		if err != nil {
			continue
		}
		s := sim.New()
		tr := core.NewSimTransport(s, sim.MustPath(s.NewLink("l", 100*unit.Mbps, time.Millisecond)))
		tr.Spacing = at
		rec, err := tr.Probe(sp)
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
	if _, err := core.NewSimTransport(s, sim.MustPath(l)).Probe(probe.StreamSpec{}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestSendOverSimRecordsLossWithTinyBuffer(t *testing.T) {
	s := sim.New()
	l := s.NewLink("l", 10*unit.Mbps, 0)
	l.SetBuffer(1500)
	rec, err := core.NewSimTransport(s, sim.MustPath(l)).Probe(probe.Periodic(100*unit.Mbps, 1500, 20))
	if err != nil {
		t.Fatal(err)
	}
	if rec.LossCount() == 0 {
		t.Error("expected losses with a 1-packet buffer at 10x overload")
	}
	if rec.LossCount() >= 20 {
		t.Error("some packets should still arrive")
	}
}
