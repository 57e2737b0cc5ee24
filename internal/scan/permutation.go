// Package scan implements the active-measurement substrate: a ZMap6-style
// stateless ICMPv6 scanner with multiplicative-cyclic-group target
// permutation, a Yarrp-style stateless traceroute engine, the paper's
// backscanning methodology (§3, §4.2), and aliased-network detection.
//
// Both scanners probe through simnet.World.Probe/TraceRoute, the single
// choke point that keeps active and passive measurements consistent.
package scan

import (
	"fmt"
	"math/bits"
)

// Permutation iterates [0, n) in a pseudorandom order using ZMap's
// construction: the multiplicative cyclic group of integers modulo a safe
// prime p >= n+1. The iteration x -> x*g (mod p) visits every element of
// [1, p) exactly once when g is a generator; values above n are skipped.
// State is three words, so scans can be resumed — the property
// ZMap relies on for statelessness.
type Permutation struct {
	p, g  uint64 // safe prime modulus and group generator
	n     uint64 // iteration domain size
	first uint64 // starting element
	cur   uint64
	done  bool
}

// NewPermutation creates a permutation over [0, n) seeded by seed.
// n must be at least 1.
func NewPermutation(n uint64, seed uint64) (*Permutation, error) {
	if n == 0 {
		return nil, fmt.Errorf("scan: empty permutation domain")
	}
	if n == 1 {
		// Degenerate: the group construction needs p >= 5.
		return &Permutation{p: 0, n: 1}, nil
	}
	p, err := nextSafePrime(n + 1)
	if err != nil {
		return nil, err
	}
	g, err := findGenerator(p, seed)
	if err != nil {
		return nil, err
	}
	first := seed%(p-1) + 1 // in [1, p-1]
	return &Permutation{p: p, g: g, n: n, first: first, cur: first}, nil
}

// Next returns the next element of the permutation, and false when the
// full cycle has been visited.
func (pm *Permutation) Next() (uint64, bool) {
	if pm.done {
		return 0, false
	}
	if pm.p == 0 { // n == 1
		pm.done = true
		return 0, true
	}
	for {
		v := pm.cur
		pm.cur = mulmod(pm.cur, pm.g, pm.p)
		if pm.cur == pm.first {
			pm.done = true
		}
		if v-1 < pm.n { // group elements are [1, p); domain is [0, n)
			return v - 1, true
		}
		if pm.done {
			return 0, false
		}
	}
}

// mulmod computes a*b mod m without overflow using 128-bit arithmetic.
func mulmod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

// powmod computes a^e mod m.
func powmod(a, e, m uint64) uint64 {
	result := uint64(1)
	a %= m
	for e > 0 {
		if e&1 == 1 {
			result = mulmod(result, a, m)
		}
		a = mulmod(a, a, m)
		e >>= 1
	}
	return result
}

// millerRabinBases is a deterministic witness set for 64-bit integers.
var millerRabinBases = []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// isPrime is a deterministic Miller–Rabin test valid for all uint64.
func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	d := n - 1
	r := 0
	for d&1 == 0 {
		d >>= 1
		r++
	}
witness:
	for _, a := range millerRabinBases {
		x := powmod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		for i := 0; i < r-1; i++ {
			x = mulmod(x, x, n)
			if x == n-1 {
				continue witness
			}
		}
		return false
	}
	return true
}

// nextSafePrime returns the smallest safe prime p >= lo (p and (p-1)/2
// both prime). Safe primes make generator testing trivial: g generates
// Z_p^* iff g^2 != 1 and g^q != 1 (mod p) where q = (p-1)/2.
func nextSafePrime(lo uint64) (uint64, error) {
	if lo < 5 {
		lo = 5
	}
	// Safe primes are ≡ 3 (mod 4); start at the first candidate >= lo.
	p := lo + (3-lo%4+4)%4
	for ; p >= lo; p += 4 { // wraps on overflow, caught below
		if p < lo {
			break
		}
		if isPrime(p) && isPrime((p-1)/2) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("scan: no safe prime found above %d", lo)
}

// findGenerator locates a generator of Z_p^* for a safe prime p, probing
// candidates derived from seed.
func findGenerator(p uint64, seed uint64) (uint64, error) {
	q := (p - 1) / 2
	for i := uint64(0); i < 4096; i++ {
		g := (seed+i*0x9e3779b9)%(p-3) + 2 // in [2, p-2]
		if powmod(g, 2, p) != 1 && powmod(g, q, p) != 1 {
			return g, nil
		}
	}
	return 0, fmt.Errorf("scan: no generator found for p=%d", p)
}
