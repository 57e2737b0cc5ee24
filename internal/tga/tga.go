// Package tga implements target generation algorithms: models trained on
// known-responsive addresses that emit candidate addresses for active
// scanning. The paper's §1/§2 point out that every such model inherits
// the biases of its training hitlist — which is exactly what the
// repository's ablation benchmarks measure.
//
// EntropyIP, after Foremski et al.'s Entropy/IP, segments the IID's
// sixteen nibbles by positional entropy, memorizes observed values of
// low-entropy segments and empirical distributions for high-entropy
// segments, and samples candidates per known /64.
package tga

import (
	"fmt"
	"math/rand"
	"sort"

	"hitlist6/internal/addr"
	"hitlist6/internal/stats"
)

// segment is a run of IID nibble positions treated as one unit.
type segment struct {
	lo, hi int // nibble positions [lo, hi), 0 = most significant
	fixed  bool
	// values are observed segment values with multiplicity (sampled
	// proportionally); for fixed segments it holds the single dominant
	// value.
	values []uint64
}

// EntropyIP is the Entropy/IP-style model.
type EntropyIP struct {
	prefixes []addr.Prefix64 // known-active /64s, sampled round-robin
	segments []segment
	trained  int
}

// entropyThreshold splits fixed from variable segments: positions whose
// normalized value entropy across the training set stays below it are
// considered structural.
const entropyThreshold = 0.10

// NewEntropyIP trains a model on seed addresses. It needs at least two
// seeds to estimate positional entropy.
func NewEntropyIP(seeds []addr.Addr) (*EntropyIP, error) {
	if len(seeds) < 2 {
		return nil, fmt.Errorf("tga: need >= 2 seeds, got %d", len(seeds))
	}
	m := &EntropyIP{trained: len(seeds)}

	// Known prefixes, deduplicated and sorted for determinism.
	seen := make(map[addr.Prefix64]struct{})
	for _, a := range seeds {
		if _, dup := seen[a.P64()]; !dup {
			seen[a.P64()] = struct{}{}
			m.prefixes = append(m.prefixes, a.P64())
		}
	}
	sort.Slice(m.prefixes, func(i, j int) bool { return m.prefixes[i] < m.prefixes[j] })

	// Positional nibble entropy over the IID.
	var perPos [16][16]int
	for _, a := range seeds {
		v := uint64(a.IID())
		for pos := 15; pos >= 0; pos-- {
			perPos[pos][v&0xf]++
			v >>= 4
		}
	}
	var hs [16]float64
	for pos := 0; pos < 16; pos++ {
		hs[pos] = stats.NormalizedEntropy(perPos[pos][:], 16)
	}

	// Segment the positions into maximal runs of fixed / variable.
	start := 0
	for pos := 1; pos <= 16; pos++ {
		if pos < 16 && (hs[pos] < entropyThreshold) == (hs[start] < entropyThreshold) {
			continue
		}
		m.segments = append(m.segments, segment{
			lo: start, hi: pos, fixed: hs[start] < entropyThreshold,
		})
		start = pos
	}

	// Memorize segment values (with multiplicity, preserving intra-
	// segment correlations the way Entropy/IP's segment models do).
	for si := range m.segments {
		s := &m.segments[si]
		if s.fixed {
			// Dominant value only.
			counts := make(map[uint64]int)
			for _, a := range seeds {
				counts[segValue(uint64(a.IID()), s.lo, s.hi)]++
			}
			best, bestN := uint64(0), -1
			for v, n := range counts {
				if n > bestN || (n == bestN && v < best) {
					best, bestN = v, n
				}
			}
			s.values = []uint64{best}
			continue
		}
		for _, a := range seeds {
			s.values = append(s.values, segValue(uint64(a.IID()), s.lo, s.hi))
		}
		sort.Slice(s.values, func(i, j int) bool { return s.values[i] < s.values[j] })
	}
	return m, nil
}

// segValue extracts nibbles [lo, hi) of a 16-nibble value.
func segValue(v uint64, lo, hi int) uint64 {
	width := hi - lo
	shift := uint((16 - hi) * 4)
	mask := uint64(1)<<(uint(width)*4) - 1
	return (v >> shift) & mask
}

// segPlace positions a segment value back into the IID.
func segPlace(v uint64, lo, hi int) uint64 {
	shift := uint((16 - hi) * 4)
	return v << shift
}

// Generate returns up to n candidate addresses: they cycle through the
// known /64s with IIDs assembled segment-by-segment from the learned
// distributions.
func (m *EntropyIP) Generate(n int, rng *rand.Rand) []addr.Addr {
	if n <= 0 || len(m.prefixes) == 0 {
		return nil
	}
	out := make([]addr.Addr, 0, n)
	dedupe := make(map[addr.Addr]struct{}, n)
	for attempts := 0; len(out) < n && attempts < 4*n+64; attempts++ {
		p := m.prefixes[attempts%len(m.prefixes)]
		var iid uint64
		for _, s := range m.segments {
			v := s.values[rng.Intn(len(s.values))]
			iid |= segPlace(v, s.lo, s.hi)
		}
		a := addr.FromParts(uint64(p), iid)
		if _, dup := dedupe[a]; dup {
			continue
		}
		dedupe[a] = struct{}{}
		out = append(out, a)
	}
	return out
}
