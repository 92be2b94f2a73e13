// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Every stochastic component in the repository (workload generators, random
// replacement, property tests) draws from an explicitly seeded generator so
// that each experiment is reproducible bit-for-bit. The paper notes that its
// Pin-based runs were not repeatable; determinism here is a deliberate
// improvement recorded in DESIGN.md.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 is the seeding generator recommended by Vigna for initializing
// xoshiro state. It is also a perfectly good standalone generator for
// non-cryptographic simulation purposes.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro256 implements xoshiro256** 1.0 (Blackman & Vigna). It has a period
// of 2^256-1 and passes BigCrush; more than adequate for driving synthetic
// memory traces.
type Xoshiro256 struct {
	s [4]uint64
}

// New returns a Xoshiro256 generator seeded from seed via SplitMix64, per the
// reference initialization procedure.
func New(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	// A theoretical all-zero state would be absorbing; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return &x
}

// State returns the generator's internal state, for checkpointing.
func (x *Xoshiro256) State() [4]uint64 { return x.s }

// Restore replaces the internal state with one captured by State. An all-zero
// state would be absorbing, so it is rejected with the same guard New uses.
func (x *Xoshiro256) Restore(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9e3779b97f4a7c15
	}
	x.s = s
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64-bit value.
func (x *Xoshiro256) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded values.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		hi, lo := bits.Mul64(x.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Threshold returns probability p in the integer form Chance and Trials
// draw against: Float64() < p exactly when Uint64()>>11 < Threshold(p).
// Float64 is k/2^53 for the integer k = Uint64()>>11, and p·2^53 is exact,
// so k/2^53 < p exactly when k < ceil(p·2^53). A p at or below 0 (NaN
// included) maps to 0 and a p at or above 1 to 2^53. Callers that draw
// against a fixed probability compute its threshold once.
func Threshold(p float64) uint64 {
	switch {
	case p >= 1:
		return 1 << 53
	case p > 0:
		return uint64(math.Ceil(p * (1 << 53)))
	default:
		return 0
	}
}

// Chance returns true with the probability whose Threshold is t. The ends
// take no draw: t = 0 is always false and t = 2^53 always true; any other t
// takes one. Chance(Threshold(p)) is Bool(p).
func (x *Xoshiro256) Chance(t uint64) bool {
	switch t {
	case 0:
		return false
	case 1 << 53:
		return true
	}
	return x.Uint64()>>11 < t
}

// Bool returns true with probability p.
func (x *Xoshiro256) Bool(p float64) bool { return x.Chance(Threshold(p)) }

// maxTrials caps Trials, so a zero probability still ends a run.
const maxTrials = 1 << 20

// Trials returns the number of Chance(t) trials up to and including the
// first success, at least 1 and at most 2^20. The ends take no draw: t =
// 2^53 returns 1 and t = 0 returns the cap. Every other t takes one draw
// per trial counted. The loop is Uint64's with the state held in locals,
// since the workload generator draws every gap and run length here.
func (x *Xoshiro256) Trials(t uint64) int {
	switch t {
	case 1 << 53:
		return 1
	case 0:
		return maxTrials
	}
	s0, s1, s2, s3 := x.s[0], x.s[1], x.s[2], x.s[3]
	n := 1
	for {
		result := rotl(s1*5, 7) * 9
		t17 := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t17
		s3 = rotl(s3, 45)
		if result>>11 < t || n == maxTrials {
			break
		}
		n++
	}
	x.s = [4]uint64{s0, s1, s2, s3}
	return n
}

// Pick returns an index in [0, len(weights)) chosen with probability
// proportional to weights[i]. Zero or negative weights are treated as zero.
// It panics if all weights are zero.
func (x *Xoshiro256) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: Pick with no positive weight")
	}
	target := x.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if target < w {
			return i
		}
		target -= w
	}
	// Floating-point slop: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("rng: unreachable")
}
