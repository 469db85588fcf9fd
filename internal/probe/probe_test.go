package probe

import (
	"math"
	"testing"
	"time"

	"abw/internal/rng"
	"abw/internal/unit"
)

func TestPeriodicSpec(t *testing.T) {
	sp := Periodic(40*unit.Mbps, 1500, 100)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	deps, err := sp.Departures()
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 100 {
		t.Fatalf("departures = %d, want 100", len(deps))
	}
	gap := unit.GapFor(1500, 40*unit.Mbps) // 300µs
	for i := 1; i < len(deps); i++ {
		if deps[i]-deps[i-1] != gap {
			t.Fatalf("gap %d = %v, want %v", i, deps[i]-deps[i-1], gap)
		}
	}
	if sp.Duration() != 99*gap {
		t.Errorf("Duration = %v, want %v", sp.Duration(), 99*gap)
	}
	if sp.Bytes() != 150000 {
		t.Errorf("Bytes = %d, want 150000", sp.Bytes())
	}
}

func TestPeriodicForDuration(t *testing.T) {
	// Paper Figure 2: stream duration controls averaging timescale.
	for _, d := range []time.Duration{25, 50, 100, 150, 200} {
		d := d * time.Millisecond
		sp := PeriodicForDuration(40*unit.Mbps, 1500, d)
		got := sp.Duration()
		if math.Abs(float64(got-d)) > float64(unit.GapFor(1500, 40*unit.Mbps)) {
			t.Errorf("duration %v: got %v", d, got)
		}
	}
}

func TestPeriodicForDurationMinimumTwoPackets(t *testing.T) {
	sp := PeriodicForDuration(unit.Mbps, 1500, time.Microsecond)
	if sp.Count < 2 {
		t.Errorf("Count = %d, want >= 2", sp.Count)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []StreamSpec{
		{PktSize: 0, Count: 10, Rate: unit.Mbps},
		{PktSize: 1500, Count: 1, Rate: unit.Mbps},
		{PktSize: 1500, Count: 10},
		{PktSize: 1500, Count: 3, Gaps: []time.Duration{time.Millisecond}},
		{PktSize: 1500, Count: 3, Gaps: []time.Duration{time.Millisecond, -1}},
	}
	for i, sp := range cases {
		if err := sp.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, sp)
		}
	}
}

func TestPair(t *testing.T) {
	sp := Pair(50*unit.Mbps, 1500)
	if sp.Count != 2 {
		t.Errorf("pair count = %d", sp.Count)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChirpRates(t *testing.T) {
	sp, err := Chirp(5*unit.Mbps, 80*unit.Mbps, 1000, 17, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	// First pair probes ~lo, last pair probes ~hi, monotone increasing.
	first := sp.RateAtPair(0)
	last := sp.RateAtPair(sp.Count - 2)
	if math.Abs(first.MbpsOf()-5)/5 > 0.02 {
		t.Errorf("first pair rate = %v, want ~5Mbps", first)
	}
	if math.Abs(last.MbpsOf()-80)/80 > 0.02 {
		t.Errorf("last pair rate = %v, want ~80Mbps", last)
	}
	prev := unit.Rate(0)
	for k := 0; k+1 < sp.Count; k++ {
		r := sp.RateAtPair(k)
		if r <= prev {
			t.Fatalf("chirp rates not increasing at pair %d: %v after %v", k, r, prev)
		}
		prev = r
	}
}

func TestChirpErrors(t *testing.T) {
	if _, err := Chirp(5*unit.Mbps, 80*unit.Mbps, 1000, 2, 1.2); err == nil {
		t.Error("2-packet chirp accepted")
	}
	if _, err := Chirp(80*unit.Mbps, 5*unit.Mbps, 1000, 10, 1.2); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := Chirp(5*unit.Mbps, 80*unit.Mbps, 1000, 10, 1.0); err == nil {
		t.Error("gamma=1 accepted")
	}
}

func TestPoissonPairs(t *testing.T) {
	sp, err := PoissonPairs(100*unit.Mbps, 1500, 100, 5*time.Millisecond, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Count != 200 {
		t.Fatalf("count = %d, want 200", sp.Count)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Intra-pair gaps are exactly the tight-link transmission time.
	intra := unit.GapFor(1500, 100*unit.Mbps)
	deps, err := sp.Departures()
	if err != nil {
		t.Fatal(err)
	}
	var interSum time.Duration
	for k := 0; k < 100; k++ {
		if got := deps[2*k+1] - deps[2*k]; got != intra {
			t.Fatalf("pair %d intra gap = %v, want %v", k, got, intra)
		}
		if k > 0 {
			interSum += deps[2*k] - deps[2*k-1]
		}
	}
	meanInter := interSum / 99
	if math.Abs(float64(meanInter-5*time.Millisecond)) > float64(2*time.Millisecond) {
		t.Errorf("mean inter-pair spacing = %v, want ~5ms", meanInter)
	}
}

func TestPoissonPairsErrors(t *testing.T) {
	if _, err := PoissonPairs(unit.Mbps, 1500, 0, time.Millisecond, rng.New(1)); err == nil {
		t.Error("0 pairs accepted")
	}
	if _, err := PoissonPairs(unit.Mbps, 1500, 10, 0, rng.New(1)); err == nil {
		t.Error("zero spacing accepted")
	}
	if _, err := PoissonPairs(unit.Mbps, 1500, 10, time.Millisecond, nil); err == nil {
		t.Error("nil rand accepted")
	}
}

func TestRecordRates(t *testing.T) {
	sp := Periodic(40*unit.Mbps, 1500, 5)
	rec := NewRecord(sp)
	gap := unit.GapFor(1500, 40*unit.Mbps)
	for i := 0; i < 5; i++ {
		rec.Sent[i] = time.Duration(i) * gap
		// Receiver sees the stream compressed to 30 Mbps.
		rec.Recv[i] = time.Millisecond + time.Duration(i)*unit.GapFor(1500, 30*unit.Mbps)
	}
	if ri := rec.InputRate(); math.Abs(ri.MbpsOf()-40) > 0.1 {
		t.Errorf("InputRate = %v, want 40Mbps", ri)
	}
	if ro := rec.OutputRate(); math.Abs(ro.MbpsOf()-30) > 0.1 {
		t.Errorf("OutputRate = %v, want 30Mbps", ro)
	}
	if ratio := rec.Ratio(); math.Abs(ratio-0.75) > 0.01 {
		t.Errorf("Ratio = %g, want 0.75", ratio)
	}
}

func TestRecordLoss(t *testing.T) {
	sp := Periodic(10*unit.Mbps, 1500, 4)
	rec := NewRecord(sp)
	if rec.Complete() {
		t.Error("fresh record should be incomplete")
	}
	if rec.LossCount() != 4 {
		t.Errorf("LossCount = %d, want 4", rec.LossCount())
	}
	for i := 0; i < 4; i++ {
		rec.Sent[i] = time.Duration(i) * time.Millisecond
		if i != 2 {
			rec.Recv[i] = time.Duration(i)*time.Millisecond + 10*time.Millisecond
		}
	}
	if rec.LossCount() != 1 {
		t.Errorf("LossCount = %d, want 1", rec.LossCount())
	}
	if got := len(rec.OWDs()); got != 3 {
		t.Errorf("OWDs length = %d, want 3", got)
	}
}

func TestRelativeOWDs(t *testing.T) {
	sp := Periodic(10*unit.Mbps, 1500, 3)
	rec := NewRecord(sp)
	for i := 0; i < 3; i++ {
		rec.Sent[i] = time.Duration(i) * time.Millisecond
	}
	rec.Recv[0] = 5 * time.Millisecond  // OWD 5ms
	rec.Recv[1] = 8 * time.Millisecond  // OWD 7ms
	rec.Recv[2] = 11 * time.Millisecond // OWD 9ms
	rel := rec.RelativeOWDsMs()
	want := []float64{0, 2, 4}
	for i := range want {
		if math.Abs(rel[i]-want[i]) > 1e-9 {
			t.Fatalf("RelativeOWDsMs = %v, want %v", rel, want)
		}
	}
}

func TestPairRates(t *testing.T) {
	sp := StreamSpec{PktSize: 1500, Count: 4, Gaps: []time.Duration{
		300 * time.Microsecond, time.Millisecond, 300 * time.Microsecond,
	}}
	rec := NewRecord(sp)
	deps, err := sp.Departures()
	if err != nil {
		t.Fatal(err)
	}
	copy(rec.Sent, deps)
	for i := range rec.Recv {
		rec.Recv[i] = deps[i] + time.Millisecond
	}
	// Undisturbed: pair rates in == out.
	if in, out := rec.PairInputRate(0), rec.PairOutputRate(0); in != out {
		t.Errorf("pair 0: in %v out %v", in, out)
	}
	if got := rec.PairInputRate(0); math.Abs(got.MbpsOf()-40) > 0.1 {
		t.Errorf("pair 0 rate = %v, want 40Mbps", got)
	}
	// Lost second packet kills pair metrics.
	rec.Recv[2] = Lost
	if rec.PairOutputRate(1) != 0 || rec.PairOutputRate(2) != 0 {
		t.Error("lost packet should zero pair output rates")
	}
	if rec.Gap(1) != Lost {
		t.Error("Gap with lost packet should be Lost")
	}
}

func TestRecordString(t *testing.T) {
	rec := NewRecord(Periodic(10*unit.Mbps, 1500, 2))
	if rec.String() == "" {
		t.Error("empty String()")
	}
}

// durationSpecs are the shapes Duration and core.SimTransport sum send
// times for: periodic, gapped, a 2-packet pair, and invalid ones.
func durationSpecs(t *testing.T) map[string]StreamSpec {
	chirp, err := Chirp(5*unit.Mbps, 80*unit.Mbps, 1000, 20, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := PoissonPairs(50*unit.Mbps, 1500, 7, 3*time.Millisecond, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]StreamSpec{
		"periodic":      Periodic(37*unit.Mbps, 1472, 101),
		"periodic-odd":  Periodic(3*unit.Mbps+1, 977, 9),
		"pair":          Pair(12*unit.Mbps, 1500),
		"chirp":         chirp,
		"poisson-pairs": pairs,
		"uneven-gaps":   {PktSize: 40, Count: 4, Gaps: []time.Duration{1, 999_999_937, 3}},
		"one-packet":    {PktSize: 1500, Count: 1, Rate: unit.Mbps},
		"no-rate":       {PktSize: 1500, Count: 10},
		"short-gaps":    {PktSize: 1500, Count: 5, Gaps: []time.Duration{1, 2}},
	}
}

// TestDurationIsLastDeparture: Duration is Departures()[Count-1] (0 for
// an invalid spec), computed without allocating for a valid one (an
// invalid one pays for Validate's error text).
func TestDurationIsLastDeparture(t *testing.T) {
	for name, sp := range durationSpecs(t) {
		deps, err := sp.Departures()
		if err != nil {
			if got := sp.Duration(); got != 0 {
				t.Errorf("%s: invalid spec has Duration %v, want 0", name, got)
			}
			continue
		}
		if got, want := sp.Duration(), deps[sp.Count-1]; got != want {
			t.Errorf("%s: Duration %v, last departure %v", name, got, want)
		}
		if a := testing.AllocsPerRun(20, func() { sp.Duration() }); a != 0 {
			t.Errorf("%s: Duration allocates %v times", name, a)
		}
	}
}
