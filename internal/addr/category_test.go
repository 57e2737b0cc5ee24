package addr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEntropyExtremes(t *testing.T) {
	// All-same nibbles: entropy 0.
	if e := IID(0).NormalizedEntropy(); e != 0 {
		t.Errorf("zero IID entropy: got %v", e)
	}
	if e := IID(0xffffffffffffffff).NormalizedEntropy(); e != 0 {
		t.Errorf("all-f IID entropy: got %v", e)
	}
	// The paper's own example: 0123:4567:89ab:cdef has entropy exactly 1.0.
	if e := IID(0x0123456789abcdef).NormalizedEntropy(); e != 1 {
		t.Errorf("pangram IID entropy: got %v want 1", e)
	}
}

func TestEntropyLowForOperatorAddresses(t *testing.T) {
	// ::1-style IIDs must land firmly in the low band.
	for _, v := range []uint64{1, 2, 0x100, 0x1001} {
		e := IID(v).NormalizedEntropy()
		if e >= 0.25 {
			t.Errorf("IID %x entropy %v, want < 0.25", v, e)
		}
		if IID(v).EntropyClass() != LowEntropy {
			t.Errorf("IID %x not classed low", v)
		}
	}
}

func TestEntropyHighForRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	high := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if IID(rng.Uint64()).EntropyClass() == HighEntropy {
			high++
		}
	}
	// Roughly 83% of uniformly random 16-nibble IIDs exceed 0.75
	// normalized entropy (mean ≈ 0.86).
	if high < n*3/4 {
		t.Errorf("only %d/%d random IIDs classed high", high, n)
	}
}

func TestEntropyBounds(t *testing.T) {
	f := func(v uint64) bool {
		e := IID(v).NormalizedEntropy()
		return e >= 0 && e <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassOf(t *testing.T) {
	cases := []struct {
		e    float64
		want EntropyClass
	}{
		{0, LowEntropy}, {0.2499, LowEntropy}, {0.25, MediumEntropy},
		{0.5, MediumEntropy}, {0.75, MediumEntropy}, {0.7501, HighEntropy}, {1, HighEntropy},
	}
	for _, c := range cases {
		if got := ClassOf(c.e); got != c.want {
			t.Errorf("ClassOf(%v): got %v want %v", c.e, got, c.want)
		}
	}
}

func TestEntropyClassString(t *testing.T) {
	for _, c := range []EntropyClass{LowEntropy, MediumEntropy, HighEntropy} {
		if c.String() == "Unknown" || c.String() == "" {
			t.Errorf("class %d has no name", c)
		}
	}
}

func TestStructuralCategory(t *testing.T) {
	cases := []struct {
		iid  uint64
		want Category
	}{
		{0, CatZeroes},
		{0x01, CatLowByte},
		{0xff, CatLowByte},
		{0x100, CatLow2Bytes},
		{0xffff, CatLow2Bytes},
		{0x10000, CatLowEntropy}, // ::1:0000 - very low entropy
		{0x0123456789abcdef, CatHighEntropy},
		// Eight 0-nibbles, four 1s, four 2s: H = 1.5 bits, normalized
		// 0.375, squarely medium.
		{0x0000000011112222, CatMediumEntropy},
	}
	for _, c := range cases {
		if got := IID(c.iid).StructuralCategory(); got != c.want {
			t.Errorf("StructuralCategory(%x): got %v want %v", c.iid, got, c.want)
		}
	}
}

func TestCategorizeV4Override(t *testing.T) {
	// A v4-hex embedded IID (192.0.2.1 -> c0000201) is medium/low entropy
	// structurally but becomes v4-Mapped once confirmed.
	iid := IID(0xc0000201)
	if got := iid.Categorize(true); got != CatV4Mapped {
		t.Errorf("confirmed v4: got %v", got)
	}
	if got := iid.Categorize(false); got == CatV4Mapped {
		t.Error("unconfirmed candidate must not be v4-Mapped")
	}
	// Structural low-byte wins even when "confirmed".
	if got := IID(0x01).Categorize(true); got != CatLowByte {
		t.Errorf("low byte with v4 flag: got %v", got)
	}
}

func TestCategoryString(t *testing.T) {
	for c := Category(0); c < NumCategories; c++ {
		if c.String() == "Unknown" || c.String() == "" {
			t.Errorf("category %d has no name", c)
		}
	}
}

func TestV4HexCandidate(t *testing.T) {
	// 192.0.2.1 packed in the low 32 bits.
	v4, ok := IID(0xc0000201).V4MappedCandidate(V4Hex)
	if !ok || v4 != 0xc0000201 {
		t.Errorf("V4Hex: got %x ok=%v", v4, ok)
	}
	// High bits set: not a low-32 embedding.
	if _, ok := IID(0x1_c0000201).V4MappedCandidate(V4Hex); ok {
		t.Error("V4Hex should reject IIDs with upper bits set")
	}
	if _, ok := IID(0).V4MappedCandidate(V4Hex); ok {
		t.Error("V4Hex should reject zero")
	}
}

func TestV4HighCandidate(t *testing.T) {
	v4, ok := IID(0xc0000201_00000000).V4MappedCandidate(V4High)
	if !ok || v4 != 0xc0000201 {
		t.Errorf("V4High: got %x ok=%v", v4, ok)
	}
	if _, ok := IID(0xc0000201_00000001).V4MappedCandidate(V4High); ok {
		t.Error("V4High should reject IIDs with lower bits set")
	}
}

func TestV4DottedCandidate(t *testing.T) {
	// 192.168.1.20 written as groups :192:168:1:20.
	iid := IID(0x0192_0168_0001_0020)
	v4, ok := iid.V4MappedCandidate(V4Dotted)
	if !ok {
		t.Fatal("expected dotted candidate")
	}
	want := uint32(192)<<24 | 168<<16 | 1<<8 | 20
	if v4 != want {
		t.Errorf("V4Dotted: got %08x want %08x", v4, want)
	}
	// Group with hex digit > 9 cannot be decimal.
	if _, ok := IID(0x01ab_0168_0001_0020).V4MappedCandidate(V4Dotted); ok {
		t.Error("V4Dotted should reject non-decimal digits")
	}
	// Group reading "300" exceeds octet range.
	if _, ok := IID(0x0300_0168_0001_0020).V4MappedCandidate(V4Dotted); ok {
		t.Error("V4Dotted should reject octet > 255")
	}
}

func TestV4AnyCandidate(t *testing.T) {
	// 10.0.0.1 as dotted groups reads :10:0:0:1, i.e. 0x0010_..._0001.
	iid := IID(0x0010_0000_0000_0001)
	cands := iid.V4AnyCandidate()
	if len(cands) == 0 {
		t.Fatal("expected at least the dotted candidate")
	}
	found := false
	for _, c := range cands {
		if c == uint32(10)<<24|1 {
			found = true
		}
	}
	if !found {
		t.Errorf("10.0.0.1 candidate missing from %v", cands)
	}
}

func TestNibbleCountsSum(t *testing.T) {
	f := func(v uint64) bool {
		counts := IID(v).NibbleCounts()
		sum := 0
		for _, c := range counts {
			sum += c
		}
		return sum == 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// NibbleCounts returns the IID's nibble histogram.
func (iid IID) NibbleCounts() [16]int {
	var counts [16]int
	v := uint64(iid)
	for i := 0; i < 16; i++ {
		counts[v&0xf]++
		v >>= 4
	}
	return counts
}

// refNormalizedEntropy is the nibble entropy with a branch per symbol
// and math.Log2 for every term, as ShannonEntropy computed it before its
// term table.
func refNormalizedEntropy(iid IID) float64 {
	var acc float64
	for _, c := range iid.NibbleCounts() {
		if c > 0 {
			acc += float64(c) * math.Log2(float64(c))
		}
	}
	h := math.Log2(16) - acc/16
	if h < 0 {
		h = 0
	}
	return math.Min(h/math.Log2(16), 1)
}

// refStructuralCategory is StructuralCategory in its original form, a
// switch over the entropy class.
func refStructuralCategory(iid IID) Category {
	v := uint64(iid)
	switch {
	case v == 0:
		return CatZeroes
	case v&^0xff == 0:
		return CatLowByte
	case v&^0xffff == 0:
		return CatLow2Bytes
	}
	switch ClassOf(refNormalizedEntropy(iid)) {
	case LowEntropy:
		return CatLowEntropy
	case MediumEntropy:
		return CatMediumEntropy
	default:
		return CatHighEntropy
	}
}

// TestEntropyMatchesReference checks NormalizedEntropy's bits and
// StructuralCategory against the reference over 4 Mi IIDs: uniformly
// random ones, low-2-byte ones, and sparse ones (the AND of three random
// words, a quarter of the nibbles' bits set) whose repeated nibbles
// reach every entropy band.
func TestEntropyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for i := 0; i < 1<<22; i++ {
		var iid IID
		switch i % 3 {
		case 0:
			iid = IID(r.Uint64())
		case 1:
			iid = IID(r.Uint64() & 0xffff)
		default:
			iid = IID(r.Uint64() & r.Uint64() & r.Uint64())
		}
		if g, w := iid.NormalizedEntropy(), refNormalizedEntropy(iid); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("NormalizedEntropy(%#x) = %v, reference %v", uint64(iid), g, w)
		}
		if g, w := iid.StructuralCategory(), refStructuralCategory(iid); g != w {
			t.Fatalf("StructuralCategory(%#x) = %v, reference %v", uint64(iid), g, w)
		}
	}
}
