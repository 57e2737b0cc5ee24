package addr

import "math/bits"

// murmurMix is the Murmur3/SplitMix-style 64-bit finalizer used to
// spread structured address bits.
func murmurMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Hash64 returns a well-mixed 64-bit hash of the full 128-bit address:
// both halves pass through the finalizer and combine with a rotate so
// structured networks (low-entropy IIDs, shared prefixes) still spread
// uniformly. It is the one address hash shared by consumers that need
// dispersion — HLL cardinality sketching, the collector's index tables.
func (a Addr) Hash64() uint64 {
	return murmurMix(a.Hi()) ^ bits.RotateLeft64(murmurMix(a.Lo()), 31)
}
