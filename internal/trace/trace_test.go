package trace

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"abw/internal/rng"
	"abw/internal/unit"
)

func mkTrace(t *testing.T, capacity unit.Rate, span time.Duration, pkts []Pkt) *Trace {
	t.Helper()
	tr, err := New(capacity, span, pkts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, time.Second, nil); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(unit.Mbps, 0, nil); err == nil {
		t.Error("zero span accepted")
	}
	if _, err := New(unit.Mbps, time.Second, []Pkt{{At: 2 * time.Second, Size: 100}}); err == nil {
		t.Error("packet beyond span accepted")
	}
	if _, err := New(unit.Mbps, time.Second, []Pkt{{At: 0, Size: 0}}); err == nil {
		t.Error("zero-size packet accepted")
	}
}

func TestNewSortsPackets(t *testing.T) {
	tr := mkTrace(t, 10*unit.Mbps, time.Second, []Pkt{
		{At: 300 * time.Millisecond, Size: 100},
		{At: 100 * time.Millisecond, Size: 200},
		{At: 200 * time.Millisecond, Size: 300},
	})
	prev := time.Duration(-1)
	for _, p := range tr.Packets() {
		if p.At < prev {
			t.Fatal("packets not sorted")
		}
		prev = p.At
	}
}

func TestBytesInWindows(t *testing.T) {
	tr := mkTrace(t, 10*unit.Mbps, time.Second, []Pkt{
		{At: 100 * time.Millisecond, Size: 1000},
		{At: 200 * time.Millisecond, Size: 2000},
		{At: 300 * time.Millisecond, Size: 4000},
	})
	cases := []struct {
		from, win time.Duration
		want      unit.Bytes
	}{
		{0, time.Second, 7000},
		{0, 150 * time.Millisecond, 1000},
		{150 * time.Millisecond, 100 * time.Millisecond, 2000},
		{100 * time.Millisecond, 200 * time.Millisecond, 3000}, // [100, 300): includes 100, 200, excludes 300
		{400 * time.Millisecond, 100 * time.Millisecond, 0},
		{0, 0, 0},
	}
	for _, tc := range cases {
		if got := tr.BytesIn(tc.from, tc.win); got != tc.want {
			t.Errorf("BytesIn(%v, %v) = %d, want %d", tc.from, tc.win, got, tc.want)
		}
	}
}

func TestRateAndAvailBw(t *testing.T) {
	// 1250 bytes in 1 ms = 10 Mbps on a 50 Mbps link → A = 40 Mbps.
	tr := mkTrace(t, 50*unit.Mbps, 10*time.Millisecond, []Pkt{
		{At: 0, Size: 625},
		{At: 500 * time.Microsecond, Size: 625},
	})
	if got := tr.Rate(0, time.Millisecond); math.Abs(got.MbpsOf()-10) > 0.01 {
		t.Errorf("Rate = %v, want 10Mbps", got)
	}
	if got := tr.AvailBw(0, time.Millisecond); math.Abs(got.MbpsOf()-40) > 0.01 {
		t.Errorf("AvailBw = %v, want 40Mbps", got)
	}
	// Empty window: full capacity available.
	if got := tr.AvailBw(5*time.Millisecond, time.Millisecond); got != 50*unit.Mbps {
		t.Errorf("idle AvailBw = %v, want 50Mbps", got)
	}
}

func TestAvailBwClampedAtZero(t *testing.T) {
	// Burst above capacity within the window.
	tr := mkTrace(t, unit.Mbps, 10*time.Millisecond, []Pkt{
		{At: 0, Size: 10000},
	})
	if got := tr.AvailBw(0, time.Millisecond); got != 0 {
		t.Errorf("overloaded AvailBw = %v, want 0", got)
	}
}

func TestAvailBwSeriesCount(t *testing.T) {
	tr := mkTrace(t, 10*unit.Mbps, time.Second, []Pkt{{At: 0, Size: 100}})
	series := tr.AvailBwSeries(0, time.Second, 100*time.Millisecond)
	if len(series) != 10 {
		t.Errorf("series length = %d, want 10", len(series))
	}
}

func TestMeanRateAndUtilization(t *testing.T) {
	tr := mkTrace(t, 10*unit.Mbps, time.Second, []Pkt{
		{At: 0, Size: 125000},
		{At: 500 * time.Millisecond, Size: 125000},
	})
	// 250 kB in 1 s = 2 Mbps → utilization 0.2.
	if got := tr.MeanRate(); math.Abs(got.MbpsOf()-2) > 0.01 {
		t.Errorf("MeanRate = %v, want 2Mbps", got)
	}
	if got := tr.Utilization(); math.Abs(got-0.2) > 0.001 {
		t.Errorf("Utilization = %g, want 0.2", got)
	}
}

func TestPoissonSampleBasics(t *testing.T) {
	r := rng.New(1)
	tr, err := SynthesizeFGN(FGNConfig{Span: 10 * time.Second}, r)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := tr.PoissonSample(10*time.Millisecond, 20, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 20 {
		t.Fatalf("samples = %d, want 20", len(samples))
	}
	for _, s := range samples {
		if s < 0 || s > tr.Capacity {
			t.Fatalf("sample %v outside [0, C]", s)
		}
	}
}

func TestPoissonSampleErrors(t *testing.T) {
	tr := mkTrace(t, 10*unit.Mbps, time.Second, []Pkt{{At: 0, Size: 100}})
	if _, err := tr.PoissonSample(2*time.Second, 5, rng.New(1)); err == nil {
		t.Error("tau > span accepted")
	}
	if _, err := tr.PoissonSample(time.Millisecond, 0, rng.New(1)); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := tr.PoissonSample(time.Millisecond, 5, nil); err == nil {
		t.Error("nil rand accepted")
	}
}

func TestSynthesizeFGNCalibration(t *testing.T) {
	r := rng.New(5)
	tr, err := SynthesizeFGN(FGNConfig{Span: 20 * time.Second}, r)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.MeanRate().MbpsOf()
	if math.Abs(got-70)/70 > 0.1 {
		t.Errorf("fGn trace mean rate = %.1f Mbps, want ~70", got)
	}
	// Figure 6 calibration: the 10 ms avail-bw should roam a wide band
	// around 85 Mbps.
	series := tr.AvailBwSeries(0, 20*time.Second, 10*time.Millisecond)
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for _, a := range series {
		v := a.MbpsOf()
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 25 {
		t.Errorf("10ms avail-bw band = [%.0f, %.0f] Mbps, want a spread > 25", lo, hi)
	}
}

func TestSynthesizeFGNHurstControl(t *testing.T) {
	for _, h := range []float64{0.6, 0.85} {
		tr, err := SynthesizeFGN(FGNConfig{Span: 40 * time.Second, Hurst: h}, rng.New(6))
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.HurstEstimate(10 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-h) > 0.12 {
			t.Errorf("configured H=%.2f, estimated %.2f", h, got)
		}
	}
}

func TestSynthesizeValidation(t *testing.T) {
	for _, h := range []float64{1.5, -0.2, math.NaN()} {
		if _, err := SynthesizeFGN(FGNConfig{Hurst: h}, rng.New(1)); err == nil {
			t.Errorf("invalid Hurst %g accepted", h)
		}
		// A NaN Hurst once built a NaN envelope whose first Packet
		// call appended packets forever.
		if _, err := NewFGNStream(FGNConfig{Hurst: h}, rng.New(1)); err == nil {
			t.Errorf("stream accepted invalid Hurst %g", h)
		}
	}
	if _, err := SynthesizeFGN(FGNConfig{}, nil); err == nil {
		t.Error("nil rand accepted")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, err := SynthesizeFGN(FGNConfig{Span: 5 * time.Second}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SynthesizeFGN(FGNConfig{Span: 5 * time.Second}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("replay differs: %d vs %d packets", a.Len(), b.Len())
	}
	for i := range a.Packets() {
		if a.Packets()[i] != b.Packets()[i] {
			t.Fatal("replay packet mismatch")
		}
	}
}

func TestRateSeries(t *testing.T) {
	tr := mkTrace(t, 10*unit.Mbps, time.Second, []Pkt{
		{At: 0, Size: 1250}, // 10 kbit in first 100ms window
	})
	series := tr.RateSeries(100 * time.Millisecond)
	if len(series) != 10 {
		t.Fatalf("series length = %d", len(series))
	}
	if math.Abs(series[0]-0.1) > 0.001 {
		t.Errorf("window 0 rate = %g Mbps, want 0.1", series[0])
	}
	for _, v := range series[1:] {
		if v != 0 {
			t.Errorf("idle window rate = %g, want 0", v)
		}
	}
}

// fgnStreamCases are the configurations the stream tests run: the
// defaults (a 30 s OC-3 trace, which at 1 ns resolution contains a
// handful of equal-time packet pairs) and a short fixed-size one.
var fgnStreamCases = []struct {
	cfg FGNConfig
	// digests pins the packets of seeds 1..3 (FNV-1a over At and Size
	// as little-endian uint64s) as the whole-trace loop produced them
	// before SynthesizeFGN became the drain of an FGNStream.
	digests [3]uint64
}{
	{FGNConfig{}, [3]uint64{0x3a5e674f110ca4a5, 0x1ecc4233aa9bd655, 0xae641294ad1e54f9}},
	{FGNConfig{
		Capacity: 50 * unit.Mbps, MeanRate: 20 * unit.Mbps, Hurst: 0.7,
		Span: 2 * time.Second, Window: 5 * time.Millisecond, Sizes: rng.FixedSize(1000),
	}, [3]uint64{0x151c2be4ec933d53, 0x5a396328cee60f5c, 0x757ecfd908d6f342}},
}

// TestFGNStreamMatchesSynthesize pulls packets from the stream one at a
// time, as a lazy replayer does, and requires exactly the packets of
// the whole-trace path, in exactly the order trace.New leaves them: New
// sorts with the unstable sort.Slice, so a replayer reading the stream
// and one reading Trace.Packets agree only while the stream emits in
// non-decreasing time order — asserted here on traces that do contain
// equal-time pairs.
func TestFGNStreamMatchesSynthesize(t *testing.T) {
	for ci, tc := range fgnStreamCases {
		for seed := uint64(1); seed <= 3; seed++ {
			tr, err := SynthesizeFGN(tc.cfg, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewFGNStream(tc.cfg, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if g.Span() != tr.Span {
				t.Fatalf("case %d: stream span %v, trace span %v", ci, g.Span(), tr.Span)
			}
			want := tr.Packets()
			h := fnv.New64a()
			var row [16]byte
			for i, w := range want {
				p, ok := g.Packet(i)
				if !ok || p != w {
					t.Fatalf("case %d seed %d: packet %d: stream (%v, %v), trace %v", ci, seed, i, p, ok, w)
				}
				if i > 0 && p.At < want[i-1].At {
					t.Fatalf("case %d seed %d: packet %d at %v precedes its predecessor at %v", ci, seed, i, p.At, want[i-1].At)
				}
				binary.LittleEndian.PutUint64(row[:8], uint64(p.At))
				binary.LittleEndian.PutUint64(row[8:], uint64(p.Size))
				h.Write(row[:])
			}
			if p, ok := g.Packet(len(want)); ok {
				t.Fatalf("case %d seed %d: stream yields packet %v past the trace's %d", ci, seed, p, len(want))
			}
			if got := h.Sum64(); got != tc.digests[seed-1] {
				t.Errorf("case %d seed %d: packet digest %016x, want %016x", ci, seed, got, tc.digests[seed-1])
			}
		}
	}
}

// TestFGNStreamSynthesizesOnDemand pins the laziness: a fresh stream
// holds no packets, and asking for packet i synthesizes windows up to
// the one containing it and not one further — including when packets
// are asked for out of order, which re-reads retained ones.
func TestFGNStreamSynthesizesOnDemand(t *testing.T) {
	for ci, tc := range fgnStreamCases {
		g, err := NewFGNStream(tc.cfg, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if g.w != 0 || len(g.pkts) != 0 {
			t.Fatalf("case %d: fresh stream already synthesized %d windows, %d packets", ci, g.w, len(g.pkts))
		}
		for _, i := range []int{0, 700, 3, 2500} {
			want, retained := g.w, i < len(g.pkts)
			p, ok := g.Packet(i)
			if !ok {
				t.Fatalf("case %d: no packet %d", ci, i)
			}
			if !retained {
				want = int(p.At/g.c.Window) + 1
			}
			if g.w != want {
				t.Errorf("case %d: packet %d at %v: stream has synthesized %d windows, want %d", ci, i, p.At, g.w, want)
			}
		}
		if g.w == len(g.envelope) {
			t.Errorf("case %d: four packets drained the whole stream", ci)
		}
	}
}
