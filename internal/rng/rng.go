// Package rng provides the deterministic random-number machinery used by
// every stochastic component of the reproduction: a xoshiro256** PRNG
// seeded through splitmix64, and the distributions the paper's workloads
// need (uniform, exponential, Pareto, normal, and modal packet-size
// mixtures).
//
// Every simulator component takes an explicit *Rand. Experiments derive
// independent sub-streams with Split, so adding one more traffic source
// to a scenario never perturbs the random numbers seen by another — a
// property the per-figure regression tests rely on.
package rng

import (
	"fmt"
	"math"
)

// Rand is a deterministic pseudo-random generator (xoshiro256**).
// It is not safe for concurrent use; the simulator is single-threaded by
// design, and parallel experiments must Split first.
type Rand struct {
	s        [4]uint64
	spare    float64 // cached second variate of the polar method
	hasSpare bool
}

// splitmix64 advances a 64-bit state and returns a well-mixed output.
// It is the recommended seeder for the xoshiro family.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro must not start at the all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard regardless.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// fnv64 hashes a label with FNV-64a; Split, Derive and Label share it
// so the derivation schemes can never diverge on label handling.
func fnv64(label string) uint64 { return fnvAdd(14695981039346656037, label) } // FNV-64 offset basis

// fnvAdd continues an FNV-64a hash state over the bytes of s.
func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Split derives an independent generator from r, keyed by label so that
// sub-stream assignment is stable and readable at call sites. Distinct
// labels yield distinct streams; the parent stream advances by one draw.
func (r *Rand) Split(label string) *Rand {
	return New(r.Uint64() ^ fnv64(label))
}

// Derive returns the generator for one named trial stream as a pure
// function of (seed, label): no generator state is read or advanced, so
// concurrent trials can each derive their own stream without sharing a
// parent. It is the parallel-safe counterpart of Split — runner jobs
// use labels like "fig1/tau0/trial17" built from the experiment seed
// and the trial index, which is what makes the experiments bit-identical
// at every worker count.
func Derive(seed uint64, label string) *Rand {
	return DeriveLabel(seed, NewLabel(label))
}

// Label is a Derive label hashed ahead of use. A caller that derives
// one stream per sequence number ("run/edge-7/spruce/0", ".../1", …)
// hashes the shared prefix once and appends only each number's digits,
// building no string.
type Label struct{ h uint64 }

// NewLabel hashes prefix.
func NewLabel(prefix string) Label { return Label{fnv64(prefix)} }

// Uint returns the label prefix+strconv.FormatUint(n, 10).
func (l Label) Uint(n uint64) Label {
	var digits [20]byte // 2^64-1 has 20 decimal digits
	i := len(digits)
	for {
		i--
		digits[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return Label{fnvAdd(l.h, string(digits[i:]))}
}

// DeriveLabel is Derive for a label hashed ahead of use:
// DeriveLabel(seed, NewLabel(s)) is Derive(seed, s).
func DeriveLabel(seed uint64, l Label) *Rand {
	st := seed
	return New(splitmix64(&st) ^ l.h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn with non-positive n=%d", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponential variate with the given mean. This is the
// interarrival distribution of the Poisson cross-traffic model.
func (r *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		panic(fmt.Sprintf("rng: Exp with non-positive mean %g", mean))
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Pareto returns a Pareto variate with shape alpha and minimum xm.
// The paper's ON-OFF sources use alpha = 1.5 (infinite variance, finite
// mean), the canonical heavy tail for self-similar traffic.
func (r *Rand) Pareto(alpha, xm float64) float64 {
	if alpha <= 0 || xm <= 0 {
		panic(fmt.Sprintf("rng: Pareto with alpha=%g xm=%g", alpha, xm))
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// BoundedPareto returns a Pareto variate truncated to [xm, max]. Bounding
// keeps single-run simulation time finite while preserving burstiness at
// the scales the experiments average over.
func (r *Rand) BoundedPareto(alpha, xm, max float64) float64 {
	v := r.Pareto(alpha, xm)
	if v > max {
		return max
	}
	return v
}

// Norm returns a standard normal variate via the Marsaglia polar method.
func (r *Rand) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
