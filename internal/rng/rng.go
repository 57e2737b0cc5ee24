// Package rng yields math/rand's seeded value stream, seeded on demand.
// rand.NewSource fills 607 state words by running x ← 48271·x mod 2³¹−1
// 1,841 times, though a short stream reads few of them. Word i is a
// closed form in the seed (x₀·48271^k for k = 21+3i, 22+3i, 23+3i), so a
// Source computes each word on its first read: seeding is O(1) and n
// draws cost O(n). Go 1 keeps the stdlib stream stable; tests pin it.
package rng

import "math/rand"

const (
	rngLen  = 607
	rngTap  = 273
	modulus = 1<<31 - 1
)

// pow[k] is 48271^k mod 2³¹−1 for every exponent a seed reaches; cooked
// is the stdlib's per-word constant, recovered from its stream by init.
var (
	pow    [3*rngLen + 21]uint64
	cooked [rngLen]uint64
)

func init() {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * 48271 % modulus
	}
	// Run y[n] = y[n-607] + y[n-273] back from seed 1's first 607 draws,
	// y[607:], to its seeded state: y[k], k < 607, is slot (940-k) % 607.
	src := rand.NewSource(1).(rand.Source64)
	var y [2 * rngLen]uint64
	for k := rngLen; k < len(y); k++ {
		y[k] = src.Uint64()
	}
	for k := len(y) - 1; k >= rngLen; k-- {
		y[k-rngLen] = y[k] - y[k-rngTap]
	}
	for k := 0; k < rngLen; k++ {
		i := (2*rngLen - rngTap - 1 - k) % rngLen
		cooked[i] = y[k] ^ seedPart(1, i)
	}
}

// seedPart is seed x0's share of state word i: three consecutive Lehmer
// values packed as the stdlib packs them.
func seedPart(x0 uint64, i int) uint64 {
	a := x0 * pow[21+3*i] % modulus
	b := x0 * pow[22+3*i] % modulus
	c := x0 * pow[23+3*i] % modulus
	return a<<40 ^ b<<20 ^ c
}

// Source is a rand.Source64 with rand.NewSource's value stream. It is
// not safe for concurrent use; reseeding one reuses its memory.
type Source struct {
	x0        uint64
	tap, feed int
	filled    [(rngLen + 63) / 64]uint64 // bit i: vec[i] holds its value
	vec       [rngLen]uint64
}

// NewSource is rand.NewSource(seed) with the state seeded on demand.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the stream to the one rand.NewSource(seed) yields.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.filled = [len(s.filled)]uint64{}
}

// word returns state word i, computing its seeded value on first read.
func (s *Source) word(i int) uint64 {
	if s.filled[i>>6]&(1<<(i&63)) == 0 {
		s.filled[i>>6] |= 1 << (i & 63)
		s.vec[i] = seedPart(s.x0, i) ^ cooked[i]
	}
	return s.vec[i]
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return x
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
