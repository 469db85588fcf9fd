// Package fgn synthesizes fractional Gaussian noise (fGn), the canonical
// exactly self-similar stationary process with Hurst parameter H. The
// paper's Equation (5) states that for such a process the variance of the
// aggregated (time-averaged) series decays as k^{-2(1-H)} instead of the
// IID law k^{-1}; this package provides the process those property tests
// and the long-range-dependent trace synthesis are built on.
//
// The generator uses the Davies–Harte circulant embedding method, which
// is exact: the output has precisely the fGn autocovariance
//
//	γ(k) = σ²/2 (|k+1|^{2H} − 2|k|^{2H} + |k−1|^{2H}).
package fgn

import (
	"fmt"
	"math"
	"sync"

	"abw/internal/fft"
	"abw/internal/rng"
)

// Autocov returns the theoretical autocovariance of unit-variance fGn
// with Hurst parameter h at lag k ≥ 0.
func Autocov(h float64, k int) float64 {
	if k == 0 {
		return 1
	}
	fk := float64(k)
	p := 2 * h
	return 0.5 * (math.Pow(fk+1, p) - 2*math.Pow(fk, p) + math.Pow(fk-1, p))
}

// Generator produces fixed-length sample paths of fGn with a given Hurst
// parameter. The spectral factorization depends only on (H, n) and is
// done once per pair per process; each Sample call costs two FFTs. A
// Generator is immutable, so one is shared by every caller and
// goroutine that asks for its (H, n).
type Generator struct {
	n    int       // requested path length
	m    int       // circulant size (power of two, ≥ 2n)
	sqrt []float64 // sqrt of circulant eigenvalues
}

// memoEntry is one (H, n)'s factorization, built exactly once.
type memoEntry struct {
	once sync.Once
	g    *Generator
	err  error
}

type memoKey struct {
	h float64
	n int
}

var (
	memoMu sync.Mutex
	memo   = map[memoKey]*memoEntry{}
)

// NewGenerator returns the generator for length-n paths of fGn with
// Hurst parameter h in (0, 1). H = 0.5 reduces to white Gaussian noise;
// 0.5 < H < 1 gives long-range dependence (the regime of interest for
// Internet traffic, typically H ≈ 0.7–0.9). Every call with the same
// (h, n) returns the same Generator (or the same error); invalid
// arguments are rejected before the lookup and never stored.
func NewGenerator(h float64, n int) (*Generator, error) {
	if !(h > 0 && h < 1) {
		return nil, fmt.Errorf("fgn: Hurst parameter %g outside (0, 1)", h)
	}
	if n <= 0 {
		return nil, fmt.Errorf("fgn: path length %d must be positive", n)
	}
	k := memoKey{h, n}
	memoMu.Lock()
	e := memo[k]
	if e == nil {
		e = new(memoEntry)
		memo[k] = e
	}
	memoMu.Unlock()
	e.once.Do(func() { e.g, e.err = factorize(h, n) })
	return e.g, e.err
}

// factorize computes the circulant embedding's eigenvalue square roots
// for valid (h, n): the uncached construction behind NewGenerator.
func factorize(h float64, n int) (*Generator, error) {
	m := fft.NextPow2(2 * n)
	// First row of the circulant embedding matrix: autocovariances
	// wrapped around the circle.
	row := make([]complex128, m)
	for i := 0; i <= m/2; i++ {
		row[i] = complex(Autocov(h, i), 0)
	}
	for i := m/2 + 1; i < m; i++ {
		row[i] = row[m-i]
	}
	if err := fft.Forward(row); err != nil {
		return nil, err
	}
	sqrtEig := make([]float64, m)
	for i, v := range row {
		ev := real(v)
		// For fGn the circulant eigenvalues are nonnegative in theory;
		// clamp tiny negative values caused by floating-point noise.
		if ev < 0 {
			if ev < -1e-6 {
				return nil, fmt.Errorf("fgn: circulant embedding failed (eigenvalue %g at %d)", ev, i)
			}
			ev = 0
		}
		sqrtEig[i] = math.Sqrt(ev)
	}
	return &Generator{n: n, m: m, sqrt: sqrtEig}, nil
}

// Sample draws one zero-mean, unit-variance fGn path of the length
// NewGenerator was given. It only reads the generator and allocates its
// own buffers, so concurrent calls are safe.
func (g *Generator) Sample(r *rng.Rand) ([]float64, error) {
	m := g.m
	w := make([]complex128, m)
	// Complex Gaussian spectral weights with the Hermitian structure the
	// Davies–Harte construction requires.
	w[0] = complex(r.Norm()*g.sqrt[0], 0)
	w[m/2] = complex(r.Norm()*g.sqrt[m/2], 0)
	inv := 1 / math.Sqrt(2)
	for k := 1; k < m/2; k++ {
		a := r.Norm() * inv
		b := r.Norm() * inv
		w[k] = complex(a*g.sqrt[k], b*g.sqrt[k])
		w[m-k] = complex(a*g.sqrt[m-k], -b*g.sqrt[m-k])
	}
	if err := fft.Forward(w); err != nil {
		return nil, err
	}
	scale := 1 / math.Sqrt(float64(m))
	out := make([]float64, g.n)
	for i := range out {
		out[i] = real(w[i]) * scale
	}
	return out, nil
}
