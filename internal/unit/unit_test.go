package unit

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTxTimeKnownValues(t *testing.T) {
	tests := []struct {
		name string
		b    Bytes
		r    Rate
		want time.Duration
	}{
		{"1500B at 100Mbps", 1500, 100 * Mbps, 120 * time.Microsecond},
		{"1500B at 10Mbps", 1500, 10 * Mbps, 1200 * time.Microsecond},
		{"40B at 100Mbps", 40, 100 * Mbps, 3200 * time.Nanosecond},
		{"1B at 8bps", 1, 8, time.Second},
		{"1500B at OC3", 1500, OC3, time.Duration(math.Round(1500 * 8 / 155.52e6 * 1e9))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := TxTime(tt.b, tt.r); got != tt.want {
				t.Errorf("TxTime(%d, %v) = %v, want %v", tt.b, tt.r, got, tt.want)
			}
		})
	}
}

func TestTxTimePanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TxTime with zero rate did not panic")
		}
	}()
	TxTime(100, 0)
}

func TestRateOf(t *testing.T) {
	if got := RateOf(1500, 120*time.Microsecond); math.Abs(float64(got-100*Mbps)) > 1 {
		t.Errorf("RateOf(1500B, 120us) = %v, want 100Mbps", got)
	}
	if got := RateOf(1500, 0); got != 0 {
		t.Errorf("RateOf with zero duration = %v, want 0", got)
	}
	if got := RateOf(1500, -time.Second); got != 0 {
		t.Errorf("RateOf with negative duration = %v, want 0", got)
	}
}

func TestBytesIn(t *testing.T) {
	if got := BytesIn(100*Mbps, time.Second); got != 12500000 {
		t.Errorf("BytesIn(100Mbps, 1s) = %d, want 12500000", got)
	}
	if got := BytesIn(0, time.Second); got != 0 {
		t.Errorf("BytesIn(0, 1s) = %d, want 0", got)
	}
	if got := BytesIn(100*Mbps, -time.Second); got != 0 {
		t.Errorf("BytesIn with negative duration = %d, want 0", got)
	}
}

func TestGapForMatchesPaperDelta(t *testing.T) {
	// δ_i = L/R_i: 1500-byte packets at 40 Mbps → 300 µs.
	if got := GapFor(1500, 40*Mbps); got != 300*time.Microsecond {
		t.Errorf("GapFor(1500, 40Mbps) = %v, want 300µs", got)
	}
}

// roundTrip maps a random draw to a byte count and a rate, and returns
// the relative error of RateOf(b, TxTime(b, r)) against r together with
// its exact bound: TxTime rounds to the nearest nanosecond, so the
// error is at most half a nanosecond over the rounded time.
func roundTrip(bRaw uint16, rRaw uint32) (rel, bound float64) {
	b := Bytes(bRaw%9000 + 40)
	r := Rate(float64(rRaw%1000+1)) * Mbps
	d := TxTime(b, r)
	rel = math.Abs(float64(RateOf(b, d)-r)) / float64(r)
	return rel, 0.5e-9/d.Seconds() + 1e-12
}

func TestRateRoundTripProperty(t *testing.T) {
	// For any positive byte count and rate, RateOf(b, TxTime(b, r)) ≈ r
	// within TxTime's nanosecond quantization.
	f := func(bRaw uint16, rRaw uint32) bool {
		rel, bound := roundTrip(bRaw, rRaw)
		return rel <= bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// 43 B at 979 Mbps takes 351.38 ns, rounded to 351 ns: a relative
	// error of 1.08e-3, within the quantization bound but above a fixed
	// 1e-3.
	rel, bound := roundTrip(3, 978)
	if rel <= 1e-3 {
		t.Errorf("43 B at 979 Mbps: rel = %g, want above 1e-3", rel)
	}
	if rel > bound {
		t.Errorf("43 B at 979 Mbps: rel = %g above the quantization bound %g", rel, bound)
	}
}

func TestRateString(t *testing.T) {
	tests := []struct {
		r    Rate
		want string
	}{
		{0, "0bps"},
		{100 * Mbps, "100Mbps"},
		{1.5 * Gbps, "1.5Gbps"},
		{64 * Kbps, "64Kbps"},
		{500, "500bps"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("Rate(%g).String() = %q, want %q", float64(tt.r), got, tt.want)
		}
	}
}

func TestRateIsValid(t *testing.T) {
	if !Rate(10 * Mbps).IsValid() {
		t.Error("10Mbps should be valid")
	}
	if Rate(-1).IsValid() {
		t.Error("negative rate should be invalid")
	}
	if Rate(math.Inf(1)).IsValid() {
		t.Error("+Inf rate should be invalid")
	}
	if Rate(math.NaN()).IsValid() {
		t.Error("NaN rate should be invalid")
	}
}

func TestBytesBits(t *testing.T) {
	if got := Bytes(1500).Bits(); got != 12000 {
		t.Errorf("Bytes(1500).Bits() = %d, want 12000", got)
	}
}
