package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"abw/internal/rng"
)

// naiveDFT is the O(n^2) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}

func TestForwardMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.Float64()*2-1, r.Float64()*2-1)
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		if err := Forward(got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: FFT[%d] = %v, naive = %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestNonPow2Rejected(t *testing.T) {
	if err := Forward(make([]complex128, 3)); err == nil {
		t.Error("Forward accepted length 3")
	}
	if err := Forward(make([]complex128, 12)); err == nil {
		t.Error("Forward accepted length 12")
	}
	if err := Forward(nil); err == nil {
		t.Error("Forward accepted length 0")
	}
}

func TestParsevalProperty(t *testing.T) {
	// Parseval: sum |x|^2 == (1/n) sum |X|^2.
	r := rng.New(3)
	f := func(seed uint32) bool {
		n := 128
		x := make([]complex128, n)
		var timeEnergy float64
		for i := range x {
			x[i] = complex(r.Norm(), 0)
			timeEnergy += real(x[i]) * real(x[i])
		}
		if err := Forward(x); err != nil {
			return false
		}
		var freqEnergy float64
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(timeEnergy-freqEnergy/float64(n)) < 1e-6*timeEnergy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestImpulseResponse(t *testing.T) {
	// DFT of a unit impulse is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse DFT[%d] = %v, want 1", i, v)
		}
	}
}

func TestNextPow2(t *testing.T) {
	tests := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, tt := range tests {
		if got := NextPow2(tt.in); got != tt.want {
			t.Errorf("NextPow2(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -2, 3, 12, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func BenchmarkForward4096(b *testing.B) {
	r := rng.New(5)
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(r.Norm(), 0)
	}
	work := make([]complex128, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, x)
		if err := Forward(work); err != nil {
			b.Fatal(err)
		}
	}
}
