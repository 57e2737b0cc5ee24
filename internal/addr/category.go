package addr

// Category is one of the seven addressing categories of Figure 5. The
// paper assigns each address to exactly one category; structural categories
// (Zeroes, Low Byte, Low 2 Bytes, v4-mapped) take precedence over the
// entropy bands so that, e.g., ::1 is "Low Byte" rather than "Low Entropy".
type Category uint8

const (
	// CatZeroes is the all-zero IID ("Zeroes").
	CatZeroes Category = iota
	// CatLowByte has only the least significant byte set ("Low Byte").
	CatLowByte
	// CatLow2Bytes has only the two least significant bytes set, with the
	// second byte nonzero ("Low 2 Bytes").
	CatLow2Bytes
	// CatV4Mapped embeds an IPv4 address in the IID ("v4-Mapped"). Because
	// random IIDs occasionally look v4-embedded, the paper only accepts the
	// category after AS-level corroboration; see V4MappedCandidate and
	// analysis.CategorizeDataset.
	CatV4Mapped
	// CatLowEntropy is normalized entropy < 0.25 ("Entropy < 0.25").
	CatLowEntropy
	// CatMediumEntropy is 0.25 <= e <= 0.75.
	CatMediumEntropy
	// CatHighEntropy is e > 0.75.
	CatHighEntropy
	// NumCategories is the category count; useful for arrays.
	NumCategories
)

// String names the category as the Figure 5 axis labels do.
func (c Category) String() string {
	switch c {
	case CatZeroes:
		return "Zeroes"
	case CatLowByte:
		return "Low Byte"
	case CatLow2Bytes:
		return "Low 2 Bytes"
	case CatV4Mapped:
		return "v4-Mapped"
	case CatLowEntropy:
		return "Entropy < 0.25"
	case CatMediumEntropy:
		return "0.25 <= Entropy <= 0.75"
	case CatHighEntropy:
		return "Entropy > 0.75"
	default:
		return "Unknown"
	}
}

// StructuralCategory classifies the IID using only its bit pattern,
// returning one of the structural categories or, failing those, the
// entropy band. v4-mapped detection is NOT applied here because it needs
// AS-level corroboration; use Categorize with a confirmed v4 set, or
// V4MappedCandidate to extract candidates.
func (iid IID) StructuralCategory() Category {
	return iid.CategoryFromEntropy(iid.NormalizedEntropy())
}

// CategoryFromEntropy is StructuralCategory for a caller that already
// holds the IID's normalized entropy e, so the nibble loop runs once per
// IID: a structural category if one applies, else e's entropy band.
func (iid IID) CategoryFromEntropy(e float64) Category {
	v := uint64(iid)
	switch {
	case v == 0:
		return CatZeroes
	case v&^0xff == 0:
		return CatLowByte
	case v&^0xffff == 0:
		return CatLow2Bytes
	}
	// The entropy bands are the EntropyClass order, shifted.
	return CatLowEntropy + Category(ClassOf(e))
}

// Categorize classifies the IID, treating it as v4-mapped when confirmedV4
// is true (the caller established AS-level corroboration per the paper's
// two-rule filter). Structural zero/low-byte categories still win, since a
// low-byte IID cannot meaningfully embed an IPv4 address.
func (iid IID) Categorize(confirmedV4 bool) Category {
	c := iid.StructuralCategory()
	if confirmedV4 && c != CatZeroes && c != CatLowByte && c != CatLow2Bytes {
		return CatV4Mapped
	}
	return c
}

// V4Embedding is one of the three IPv4-in-IID encodings the paper checks.
type V4Embedding uint8

const (
	// V4Hex is the address packed into the low 32 bits
	// (…:0102:0304 for 1.2.3.4).
	V4Hex V4Embedding = iota
	// V4Dotted is the decimal octets written as the four hex groups
	// (…:1:2:3:4 or with multi-digit octets …:192:168:1:20).
	V4Dotted
	// V4High is the address packed into the top 32 bits of the IID.
	V4High
)

// V4MappedCandidate extracts the IPv4 address a given embedding would
// imply. ok is false when the bit pattern cannot carry that embedding
// (e.g. dotted groups exceeding 255). Callers must corroborate candidates
// against AS data before trusting them — that is the whole point of the
// paper's two-rule filter (>=100 instances in the AS and >=10% of the AS's
// addresses).
func (iid IID) V4MappedCandidate(e V4Embedding) (v4 uint32, ok bool) {
	v := uint64(iid)
	switch e {
	case V4Hex:
		if v>>32 != 0 {
			return 0, false
		}
		return uint32(v), v != 0
	case V4High:
		if v&0xffffffff != 0 {
			return 0, false
		}
		return uint32(v >> 32), v != 0
	case V4Dotted:
		var out uint32
		for shift := 48; shift >= 0; shift -= 16 {
			g := (v >> uint(shift)) & 0xffff
			// Each group must read as a decimal octet when printed in hex
			// notation, i.e. its hex digits are 0-9 and value <= 0x255 with
			// each nibble <= 9, forming a number <= 255 read as decimal.
			oct, okOct := hexGroupAsDecimalOctet(uint16(g))
			if !okOct {
				return 0, false
			}
			out = out<<8 | uint32(oct)
		}
		return out, out != 0
	default:
		return 0, false
	}
}

// hexGroupAsDecimalOctet interprets a 16-bit group's hex digits as a
// decimal number and reports whether it is a valid IPv4 octet. For
// example group 0x0192 reads "192" -> 192, ok; 0x01ab contains non-decimal
// digits -> not ok; 0x0300 reads "300" -> out of range.
func hexGroupAsDecimalOctet(g uint16) (byte, bool) {
	val := 0
	for shift := 12; shift >= 0; shift -= 4 {
		d := int(g>>uint(shift)) & 0xf
		if d > 9 {
			return 0, false
		}
		val = val*10 + d
	}
	if val > 255 {
		return 0, false
	}
	return byte(val), true
}

// V4AnyCandidate returns the candidate IPv4 values for all three encodings
// that structurally fit this IID.
func (iid IID) V4AnyCandidate() []uint32 {
	var out []uint32
	for _, e := range []V4Embedding{V4Hex, V4Dotted, V4High} {
		if v4, ok := iid.V4MappedCandidate(e); ok {
			out = append(out, v4)
		}
	}
	return out
}
