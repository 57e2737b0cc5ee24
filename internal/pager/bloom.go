package pager

import "hitlist6/internal/addr"

// Per-chunk bloom filters: ~10 bits per key, 4 probes by double
// hashing, which puts the false-positive rate around 1–2% — a cold
// point lookup for an absent key loads no chunk ~98% of the time, and
// the whole directory's filters cost ~1.25 bytes per corpus address.
const bloomK = 4

// bloomWords returns the filter size for n keys in 64-bit words: the
// next power of two of 10n bits, at least 64. Power-of-two sizing turns
// the probe modulo into a mask. Pure arithmetic — the tier reader uses
// it to validate a directory's declared sizes BEFORE allocating, so a
// hostile record count cannot drive an allocation.
func bloomWords(n int) uint32 {
	bits := uint64(64)
	for bits < uint64(n)*10 {
		bits *= 2
	}
	return uint32(bits / 64)
}

// newBloom allocates a filter sized for n keys.
func newBloom(n int) []uint64 {
	return make([]uint64, bloomWords(n))
}

// bloomMix is SplitMix64's finalizer: the independent second hash
// stream for double hashing.
func bloomMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func bloomAdd(f []uint64, a addr.Addr) {
	h1 := a.Hash64()
	h2 := bloomMix(h1) | 1
	mask := uint64(len(f))*64 - 1
	for i := 0; i < bloomK; i++ {
		bit := (h1 + uint64(i)*h2) & mask
		f[bit>>6] |= 1 << (bit & 63)
	}
}

// bloomHas reports whether f may hold the address whose Hash64 is h1:
// the caller hashes once and probes every file's filter with it.
func bloomHas(f []uint64, h1 uint64) bool {
	if len(f) == 0 {
		return false
	}
	h2 := bloomMix(h1) | 1
	mask := uint64(len(f))*64 - 1
	for i := 0; i < bloomK; i++ {
		bit := (h1 + uint64(i)*h2) & mask
		if f[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}
