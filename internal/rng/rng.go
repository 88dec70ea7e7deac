// Package rng provides a deterministic pseudo-random number generator and
// the probability distributions used throughout the simulator.
//
// Every stochastic component in occusim draws from an explicit *rng.Source
// seeded by the experiment, so that simulations are exactly reproducible:
// the same seed always yields the same advertising jitter, shadowing field,
// fading draws and movement paths.
//
// The generator is splitmix64-seeded xoshiro256**, a small, fast, high
// quality PRNG that needs no external dependencies.
package rng

import (
	"math/bits"
)

// Source is a deterministic random source. It is NOT safe for concurrent
// use; derive independent child sources with Split for concurrent
// components so the stream stays reproducible regardless of scheduling.
type Source struct {
	s    [4]uint64
	seed uint64
}

// New returns a Source seeded from seed. Two Sources created with the same
// seed produce identical streams.
func New(seed uint64) *Source {
	src := &Source{}
	src.Seed(seed)
	return src
}

// Seed (re-)initialises the source from seed in place, using splitmix64
// to spread the seed over the full state. A source seeded twice with the
// same value replays the same stream.
func (r *Source) Seed(seed uint64) {
	r.seed = seed
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// splitSeed derives the construction seed of the child stream for tag.
func (r *Source) splitSeed(tag uint64) uint64 {
	h := r.seed ^ (tag+1)*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Split derives an independent child source. The child stream is a pure
// function of the parent's construction seed and the tag — the parent
// stream position is not consumed or disturbed — so components created
// with distinct tags get reproducible streams regardless of registration
// order. Calling Split twice with the same tag yields identical children.
func (r *Source) Split(tag uint64) *Source {
	return New(r.splitSeed(tag))
}

// Derive seeds out with the same child stream Split(tag) would return,
// without allocating. Hot loops that need a fresh short-lived stream per
// item (for example one per delivered radio packet) reuse a stack Source
// through this method.
func (r *Source) Derive(tag uint64, out *Source) {
	out.Seed(r.splitSeed(tag))
}

// Hash01 returns a uniform value in [0, 1) that is a pure function of
// the source's construction seed and tag; no stream state is consumed.
// It is the cheap pre-test companion of Derive: a rejection decision
// (such as a radio duty-cycle capture test) can be taken from Hash01
// before paying for the full derived stream. The value is decorrelated
// from the Derive(tag) stream by an extra mixing round with a distinct
// constant.
func (r *Source) Hash01(tag uint64) float64 {
	x := r.splitSeed(tag) ^ 0xd1b54a32d192ed03
	z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
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

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) without modulo bias, via
// Lemire's multiply-shift rejection: the 128-bit product of a raw draw
// and n is an exact fixed-point scaling, and the rare draws falling in
// the short first partial interval (probability n/2⁶⁴) are rejected.
// Almost every call costs one multiply and no division. Panics if
// n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with zero bound")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		// Only now is the (single) division needed: thresh = 2⁶⁴ mod n.
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Uniform returns a uniform value in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p (clamped to [0, 1]).
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Normal returns a draw from N(mean, sigma²) using the Box–Muller
// transform. sigma must be >= 0; sigma == 0 returns mean exactly.
func (r *Source) Normal(mean, sigma float64) float64 {
	if sigma == 0 {
		return mean
	}
	return mean + sigma*r.StdNormal()
}
