// Package sim provides the deterministic building blocks shared by every
// simulator component: a seedable random number generator, the global cycle
// clock, and the watchdog progress monitor used as the empirical deadlock and
// livelock oracle.
//
// Everything in this package is deliberately free of global state so that two
// simulations with the same seed produce bit-identical results, which the
// test suite relies on.
package sim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator based on
// splitmix64. It is not safe for concurrent use; each simulator owns one.
//
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds yield
// independent-looking streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Seed resets the generator to the stream identified by seed.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// State returns the current internal state. Seed(State()) on another
// generator reproduces the stream from this exact point — the snapshot
// machinery uses the pair to checkpoint RNG streams bit-exactly.
func (r *RNG) State() uint64 { return r.state }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	var v uint64
	r.state, v = Step(r.state)
	return v
}

// gamma is splitmix64's state increment: every draw adds it to the state.
const gamma = 0x9e3779b97f4a7c15

// Skip advances the stream by k draws without computing them. The state is
// a counter that each draw moves by gamma, so k draws add k·gamma (mod
// 2^64): Skip(k) leaves the generator where k Uint64 calls would.
func (r *RNG) Skip(k uint64) { r.state += k * gamma }

// Step is one splitmix64 draw on a bare state: it returns the advanced state
// and the value Uint64 would return from a generator holding state. A loop
// that draws once per iteration can keep the state in a local, handing it
// back to the generator (Seed) before anything else draws from it.
func Step(state uint64) (next, v uint64) {
	next = state + gamma
	z := next
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return next, z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded values.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// BoolCut is the integer form of Bool for 0 < p < 1: there Bool draws v and
// returns true exactly when v>>11 < BoolCut(p). Float64 is (v>>11)/2^53 and
// p·2^53 is exact, so for an integer x, x/2^53 < p holds exactly when
// x < ceil(p·2^53). A NaN p yields 0, which no draw is below, as no Float64
// is below NaN. Bool itself consumes no draw for p <= 0 or p >= 1.
func BoolCut(p float64) uint64 {
	c := math.Ceil(p * (1 << 53))
	if !(c > 0) {
		return 0
	}
	return uint64(c)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// splitMix decorrelates a child's seed from the parent draw it comes from.
const splitMix = 0xd1b54a32d192ed03

// Split derives an independent child generator. The child stream does not
// overlap the parent's for any practical simulation length.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ splitMix}
}

// SplitState returns the state of the child that the (i+1)-th of a run of
// Split calls on r would derive, without drawing: a child is seeded from
// one draw, and the i-th draw is a function of state + i·gamma. A caller
// that needs n children only on demand can take SplitState(i) for child i
// and Skip(n) over the draws.
func (r *RNG) SplitState(i uint64) uint64 {
	_, v := Step(r.state + i*gamma)
	return v ^ splitMix
}
