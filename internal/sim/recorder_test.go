package sim

import (
	"math"
	"testing"
	"time"

	"abw/internal/unit"
)

// cbrScenario drives a link with perfectly periodic cross traffic at
// rate, returning the recorder after runFor.
func cbrScenario(t *testing.T, capacity, rate unit.Rate, pktSize unit.Bytes, runFor time.Duration) *Recorder {
	t.Helper()
	s := New()
	l := s.NewLink("l", capacity, 0)
	rec := NewRecorder(capacity)
	l.Attach(rec)
	gap := unit.GapFor(pktSize, rate)
	for at := time.Duration(0); at < runFor; at += gap {
		s.Inject(&Packet{Size: pktSize, Kind: KindCross, Route: []*Link{l}}, at)
	}
	s.Run()
	return rec
}

func TestUtilizationMatchesCBRRate(t *testing.T) {
	// 25 Mbps CBR on a 50 Mbps link → utilization 0.5, avail-bw 25 Mbps
	// (the paper's canonical single-hop scenario).
	rec := cbrScenario(t, 50*unit.Mbps, 25*unit.Mbps, 1500, time.Second)
	u := rec.Utilization(100*time.Millisecond, 500*time.Millisecond)
	if math.Abs(u-0.5) > 0.01 {
		t.Errorf("utilization = %g, want ~0.5", u)
	}
	a := rec.AvailBw(100*time.Millisecond, 500*time.Millisecond)
	if math.Abs(a.MbpsOf()-25) > 0.5 {
		t.Errorf("avail-bw = %v, want ~25Mbps", a)
	}
}

func TestIdleLinkFullAvailBw(t *testing.T) {
	s := New()
	l := s.NewLink("l", 100*unit.Mbps, 0)
	rec := NewRecorder(l.Capacity)
	l.Attach(rec)
	s.RunUntil(time.Second)
	if got := rec.AvailBw(0, time.Second); got != 100*unit.Mbps {
		t.Errorf("idle avail-bw = %v, want 100Mbps", got)
	}
}

func TestSaturatedLinkZeroAvailBw(t *testing.T) {
	rec := cbrScenario(t, 50*unit.Mbps, 60*unit.Mbps, 1500, time.Second)
	// Offered load exceeds capacity: utilization in the interior must be 1.
	u := rec.Utilization(200*time.Millisecond, 500*time.Millisecond)
	if u < 0.999 {
		t.Errorf("utilization = %g, want ~1", u)
	}
	if a := rec.AvailBw(200*time.Millisecond, 500*time.Millisecond); a.MbpsOf() > 0.1 {
		t.Errorf("avail-bw = %v, want ~0", a)
	}
}

func TestArrivalRateMatchesOfferedLoad(t *testing.T) {
	rec := cbrScenario(t, 50*unit.Mbps, 25*unit.Mbps, 1500, time.Second)
	got := rec.ArrivalRate(0, 900*time.Millisecond, CrossOnly)
	if math.Abs(got.MbpsOf()-25) > 0.5 {
		t.Errorf("arrival rate = %v, want ~25Mbps", got)
	}
}

func TestArrivalRateAgreesWithUtilizationWhenStable(t *testing.T) {
	// In a stable window, C·u ≈ arrival rate (the design decision noted
	// in DESIGN.md).
	rec := cbrScenario(t, 50*unit.Mbps, 30*unit.Mbps, 1500, time.Second)
	from, win := 100*time.Millisecond, 700*time.Millisecond
	byBusy := float64(rec.Capacity) * rec.Utilization(from, win)
	byArrivals := float64(rec.ArrivalRate(from, win, nil))
	if math.Abs(byBusy-byArrivals)/byArrivals > 0.02 {
		t.Errorf("C*u = %g, arrival rate = %g; want agreement within 2%%", byBusy, byArrivals)
	}
}

func TestAvailBwSeriesLengthAndValues(t *testing.T) {
	rec := cbrScenario(t, 50*unit.Mbps, 25*unit.Mbps, 1500, time.Second)
	series := rec.AvailBwSeries(0, time.Second, 100*time.Millisecond)
	if len(series) != 10 {
		t.Fatalf("series length = %d, want 10", len(series))
	}
	for i, a := range series {
		if math.Abs(a.MbpsOf()-25) > 1.0 {
			t.Errorf("window %d: avail-bw = %v, want ~25Mbps", i, a)
		}
	}
}

func TestBusyIntervalMerging(t *testing.T) {
	// Back-to-back transmissions must merge into a single interval.
	s := New()
	l := s.NewLink("l", 100*unit.Mbps, 0)
	rec := NewRecorder(l.Capacity)
	l.Attach(rec)
	for i := 0; i < 10; i++ {
		s.Inject(&Packet{Size: 1500, Route: []*Link{l}}, 0)
	}
	s.Run()
	if n := len(rec.BusyIntervals()); n != 1 {
		t.Errorf("busy intervals = %d, want 1 (merged)", n)
	}
	iv := rec.BusyIntervals()[0]
	if iv.Start != 0 || iv.End != 10*120*time.Microsecond {
		t.Errorf("merged interval = %+v, want [0, 1.2ms)", iv)
	}
}

func TestRecorderKindFiltering(t *testing.T) {
	s := New()
	l := s.NewLink("l", 100*unit.Mbps, 0)
	rec := NewRecorder(l.Capacity)
	l.Attach(rec)
	s.Inject(&Packet{Size: 1000, Kind: KindCross, Route: []*Link{l}}, 0)
	s.Inject(&Packet{Size: 1000, Kind: KindProbe, Route: []*Link{l}}, 0)
	s.RunUntil(time.Second)
	all := rec.ArrivalRate(0, time.Second, nil)
	cross := rec.ArrivalRate(0, time.Second, CrossOnly)
	if all <= cross || cross == 0 {
		t.Errorf("filtering broken: all=%v cross=%v", all, cross)
	}
}

func TestRecorderReset(t *testing.T) {
	rec := cbrScenario(t, 50*unit.Mbps, 25*unit.Mbps, 1500, 100*time.Millisecond)
	rec.Reset()
	if len(rec.Arrivals()) != 0 || len(rec.BusyIntervals()) != 0 || rec.Drops() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestResetDetachesHandedOutSlices(t *testing.T) {
	// Regression: Reset used to truncate to [:0], so recording after a
	// Reset overwrote memory a caller still held from Arrivals() or
	// BusyIntervals(). The captured history must survive intact.
	rec := cbrScenario(t, 50*unit.Mbps, 25*unit.Mbps, 1500, 50*time.Millisecond)
	arr := rec.Arrivals()
	busy := rec.BusyIntervals()
	if len(arr) == 0 || len(busy) == 0 {
		t.Fatal("setup recorded nothing")
	}
	wantArr := make([]Arrival, len(arr))
	copy(wantArr, arr)
	wantBusy := make([]Interval, len(busy))
	copy(wantBusy, busy)

	rec.Reset()
	// Record a fresh, different history into the same recorder.
	s := New()
	l := s.NewLink("l", 50*unit.Mbps, 0)
	l.Attach(rec)
	for i := 0; i < len(wantArr)+4; i++ {
		s.Inject(&Packet{Size: 40, Kind: KindProbe, Route: []*Link{l}}, time.Duration(i)*time.Millisecond)
	}
	s.Run()

	for i := range wantArr {
		if arr[i] != wantArr[i] {
			t.Fatalf("captured arrival %d overwritten after Reset: got %+v, want %+v", i, arr[i], wantArr[i])
		}
	}
	for i := range wantBusy {
		if busy[i] != wantBusy[i] {
			t.Fatalf("captured busy interval %d overwritten after Reset: got %+v, want %+v", i, busy[i], wantBusy[i])
		}
	}
}

func TestIndexedUtilizationMatchesLinearScan(t *testing.T) {
	// Property check of the prefix-sum + binary-search query against the
	// obvious linear scan, over many random windows.
	rec := cbrScenario(t, 50*unit.Mbps, 35*unit.Mbps, 1500, time.Second)
	linear := func(from, to time.Duration) time.Duration {
		var busy time.Duration
		for _, iv := range rec.BusyIntervals() {
			if iv.End <= from || iv.Start >= to {
				continue
			}
			s, e := iv.Start, iv.End
			if s < from {
				s = from
			}
			if e > to {
				e = to
			}
			busy += e - s
		}
		return busy
	}
	for i := 0; i < 500; i++ {
		from := time.Duration(i) * 1873 * time.Microsecond % time.Second
		win := time.Duration(i%97+1) * 3 * time.Millisecond
		got := rec.busyTime(from, from+win)
		want := linear(from, from+win)
		if got != want {
			t.Fatalf("busyTime(%v,%v) = %v, want %v", from, win, got, want)
		}
	}
}

func TestUtilizationPanicsOnBadWindow(t *testing.T) {
	rec := NewRecorder(unit.Mbps)
	defer func() {
		if recover() == nil {
			t.Error("Utilization with zero window did not panic")
		}
	}()
	rec.Utilization(0, 0)
}

func TestPathValidation(t *testing.T) {
	if _, err := NewPath(); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := NewPath(nil); err == nil {
		t.Error("nil link accepted")
	}
}
