package addr

import "hitlist6/internal/stats"

// The paper measures IID randomness as the normalized Shannon entropy of
// the IID's sixteen hex nibbles (alphabet size 16, so the normalizer is
// log2(16) = 4 bits). A fully random IID tends toward 1.0; an operator
// IID like ::1 is near 0. The paper's Figure 4 caveat applies: entropy is
// an imperfect randomness proxy (0123:4567:89ab:cdef scores 1.0).

// EntropyClass buckets IIDs the way Figures 2(b), 4 and 5 do.
type EntropyClass uint8

const (
	// LowEntropy is normalized entropy < 0.25.
	LowEntropy EntropyClass = iota
	// MediumEntropy is 0.25 <= e <= 0.75.
	MediumEntropy
	// HighEntropy is e > 0.75.
	HighEntropy
)

// String names the class as the paper's figure legends do.
func (c EntropyClass) String() string {
	switch c {
	case LowEntropy:
		return "Low IID Entropy (< 0.25)"
	case MediumEntropy:
		return "Medium IID Entropy (0.25 <= x <= 0.75)"
	case HighEntropy:
		return "High IID Entropy (> 0.75)"
	default:
		return "Unknown"
	}
}

// ClassOf buckets a normalized entropy value.
func ClassOf(e float64) EntropyClass {
	switch {
	case e < 0.25:
		return LowEntropy
	case e <= 0.75:
		return MediumEntropy
	default:
		return HighEntropy
	}
}

// NormalizedEntropy returns the normalized Shannon entropy of the IID's 16
// nibbles, in [0, 1].
func (iid IID) NormalizedEntropy() float64 {
	var counts [16]int
	v := uint64(iid)
	for i := 0; i < 16; i++ {
		counts[v&0xf]++
		v >>= 4
	}
	return stats.NormalizedEntropy(counts[:], 16)
}

// EntropyClass buckets the IID's normalized entropy.
func (iid IID) EntropyClass() EntropyClass {
	return ClassOf(iid.NormalizedEntropy())
}
