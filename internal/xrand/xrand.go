// Package xrand provides deterministic, splittable pseudo-random number
// generators used throughout the benchmark pipeline.
//
// Reproducibility is a core requirement of the PageRank pipeline benchmark:
// kernel 0 must generate the same graph for the same (seed, scale) on every
// platform, and parallel generators must be able to draw from statistically
// independent streams without communicating.  The package implements
// SplitMix64 (for seeding), xoshiro256** (the workhorse generator), and
// deterministic stream derivation via the xoshiro jump functions.
package xrand

import (
	"math"
	"math/bits"
)

// golden is the 64-bit golden-ratio increment used by SplitMix64.
const golden = 0x9e3779b97f4a7c15

// SplitMix64 is a tiny 64-bit generator with a single word of state.
// It is primarily used to expand a user seed into the larger state of
// Xoshiro256, and to derive per-stream seeds.  The zero value is a valid
// generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the SplitMix64 finalizer to x.  It is a stateless bijective
// mixing function useful for hashing counters into well-distributed values.
func Mix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro256 implements the xoshiro256** generator of Blackman and Vigna.
// It has 256 bits of state, passes stringent statistical tests, and supports
// jump-ahead for deriving independent parallel streams.
type Xoshiro256 struct {
	s [4]uint64
}

// New returns a Xoshiro256 generator deterministically seeded from seed.
// The 256-bit internal state is expanded from the seed with SplitMix64, as
// recommended by the xoshiro authors.
func New(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var g Xoshiro256
	for i := range g.s {
		g.s[i] = sm.Next()
	}
	// The all-zero state is invalid (the generator would be stuck); the
	// SplitMix64 expansion cannot produce it for any seed, but guard anyway.
	if g.s[0]|g.s[1]|g.s[2]|g.s[3] == 0 {
		g.s[0] = golden
	}
	return &g
}

// NewStream returns a generator for the given stream index, seeded from
// seed.  Streams with distinct indices are derived by repeated long jumps
// (each equivalent to 2^192 calls of Next) from a common origin, so they are
// non-overlapping for any realistic draw count.  Stream derivation costs
// O(stream) long jumps; callers with very large stream counts should derive
// streams from mixed seeds instead (see NewSeeded).
func NewStream(seed uint64, stream int) *Xoshiro256 {
	g := New(seed)
	for i := 0; i < stream; i++ {
		g.LongJump()
	}
	return g
}

// NewSeeded returns a generator seeded from the pair (seed, stream) using a
// mixing function.  Unlike NewStream it is O(1) in the stream index, at the
// cost of only probabilistic (but overwhelmingly likely) stream independence.
func NewSeeded(seed uint64, stream uint64) *Xoshiro256 {
	return New(Mix64(seed) ^ Mix64(stream*golden+1))
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Next returns the next 64-bit value in the sequence.
func (g *Xoshiro256) Next() uint64 {
	result := rotl(g.s[1]*5, 7) * 9
	t := g.s[1] << 17
	g.s[2] ^= g.s[0]
	g.s[3] ^= g.s[1]
	g.s[1] ^= g.s[2]
	g.s[0] ^= g.s[3]
	g.s[2] ^= t
	g.s[3] = rotl(g.s[3], 45)
	return result
}

// Fill sets dst to the next len(dst) values of the sequence, exactly as
// that many calls of Next would, but with the state held in registers for
// the whole batch — the form kernel 0's sampler draws its words in.
func (g *Xoshiro256) Fill(dst []uint64) {
	s0, s1, s2, s3 := g.s[0], g.s[1], g.s[2], g.s[3]
	for i := range dst {
		dst[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	g.s = [4]uint64{s0, s1, s2, s3}
}

// Uint64 returns the next value; it is an alias for Next matching the
// math/rand/v2 Source interface shape.
func (g *Xoshiro256) Uint64() uint64 { return g.Next() }

// Float64 returns a uniformly distributed float64 in [0, 1).
// It uses the top 53 bits of the next output, which yields every
// representable multiple of 2^-53 in [0,1) with equal probability.
func (g *Xoshiro256) Float64() float64 {
	return float64(g.Next()>>11) * (1.0 / (1 << 53))
}

// Uint64n returns a uniformly distributed integer in [0, n).
// It panics if n == 0.  The implementation uses Lemire's multiply-shift
// rejection method, which is unbiased and avoids division in the common case.
func (g *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return g.Next() & (n - 1)
	}
	// Lemire rejection sampling on the high 64 bits of the 128-bit product.
	for {
		x := g.Next()
		hi, lo := mul64(x, n)
		if lo >= n || lo >= uint64(-int64(n))%n {
			return hi
		}
	}
}

// Intn returns a uniformly distributed int in [0, n); it panics if n <= 0.
func (g *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(g.Uint64n(uint64(n)))
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, generated with the Marsaglia polar method.
func (g *Xoshiro256) NormFloat64() float64 {
	for {
		u := 2*g.Float64() - 1
		v := 2*g.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) { return bits.Mul64(x, y) }

// jumpPoly and longJumpPoly are the Leaps of 2^128 and 2^192 steps, the
// polynomials from the reference implementation of xoshiro256**.
var jumpPoly = Leap{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
var longJumpPoly = Leap{0x76e15d3efefdcbbf, 0xc5004e441c522fb3, 0x77710069854ee241, 0x39109bb02acbe635}

// charPoly is the characteristic polynomial of the xoshiro256 state
// transition over GF(2), less its x^256 term: bit i of word w is the
// coefficient of x^(64w+i).  It is the minimal polynomial of any one
// state bit's sequence, re-derived from 512 of them by Berlekamp–Massey
// in TestAdvance, and x^(2^128) and x^(2^192) reduce modulo it to
// jumpPoly and longJumpPoly.
var charPoly = [4]uint64{0x9d116f2bb0f0f001, 0x0280002bcefd1a5e, 0x04b4edcf26259f85, 0x0003c03c3f3ecb19}

// A Leap advances a generator by a fixed number of steps: it holds
// x^k mod charPoly, and by Cayley–Hamilton the transition T satisfies
// T^k = p(T) for that remainder p, a sum of at most 256 powers of T
// (Haramoto et al., "Efficient Jump Ahead for F2-Linear Random Number
// Generators", 2008).  Making one takes one square of a 256-bit
// polynomial per bit of k; taking one costs 256 steps, like Jump.
type Leap [4]uint64

// LeapOf returns the Leap of k steps.
func LeapOf(k uint64) Leap {
	p := Leap{1} // x^0
	for b := bits.Len64(k) - 1; b >= 0; b-- {
		p = p.mul(p)
		if k>>uint(b)&1 != 0 {
			p = p.shift()
		}
	}
	return p
}

// shift returns x·p mod charPoly.
func (p Leap) shift() Leap {
	carry := p[3] >> 63
	p[3] = p[3]<<1 | p[2]>>63
	p[2] = p[2]<<1 | p[1]>>63
	p[1] = p[1]<<1 | p[0]>>63
	p[0] <<= 1
	if carry != 0 {
		for i := range p {
			p[i] ^= charPoly[i]
		}
	}
	return p
}

// mul returns p·q mod charPoly, Horner's rule over q's bits from the top.
func (p Leap) mul(q Leap) Leap {
	var r Leap
	for w := 3; w >= 0; w-- {
		for b := 63; b >= 0; b-- {
			r = r.shift()
			if q[w]>>uint(b)&1 != 0 {
				for i := range r {
					r[i] ^= p[i]
				}
			}
		}
	}
	return r
}

// Leap advances g by the steps l was made for: the sum of T^i(state)
// over the coefficients i set in l.
func (g *Xoshiro256) Leap(l Leap) {
	var s0, s1, s2, s3 uint64
	for _, p := range l {
		for b := 0; b < 64; b++ {
			if p&(1<<uint(b)) != 0 {
				s0 ^= g.s[0]
				s1 ^= g.s[1]
				s2 ^= g.s[2]
				s3 ^= g.s[3]
			}
			g.Next()
		}
	}
	g.s[0], g.s[1], g.s[2], g.s[3] = s0, s1, s2, s3
}

// Advance moves g k steps ahead, exactly as k calls of Next would.  To
// move many generators by the same distance, make the Leap once.
func (g *Xoshiro256) Advance(k uint64) { g.Leap(LeapOf(k)) }

// Jump advances the generator by 2^128 steps.  It can be used to derive up
// to 2^128 non-overlapping subsequences for parallel computation.
func (g *Xoshiro256) Jump() { g.Leap(jumpPoly) }

// LongJump advances the generator by 2^192 steps, deriving up to 2^64
// starting points from each of which Jump can derive 2^64 streams.
func (g *Xoshiro256) LongJump() { g.Leap(longJumpPoly) }

// Perm returns a pseudo-random permutation of the integers [0, n) as a
// slice of uint64, generated by the Fisher–Yates shuffle.
func (g *Xoshiro256) Perm(n int) []uint64 {
	p := make([]uint64, n)
	for i := range p {
		p[i] = uint64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function, exactly like math/rand.Shuffle.
func (g *Xoshiro256) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		swap(i, j)
	}
}
