package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestShannonEntropyUniform(t *testing.T) {
	// A uniform distribution over k symbols has entropy log2(k).
	for _, k := range []int{2, 4, 8, 16} {
		counts := make([]int, k)
		for i := range counts {
			counts[i] = 7
		}
		got := ShannonEntropy(counts)
		want := math.Log2(float64(k))
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("uniform k=%d: got %v want %v", k, got, want)
		}
	}
}

func TestShannonEntropyDegenerate(t *testing.T) {
	if got := ShannonEntropy(nil); got != 0 {
		t.Errorf("nil counts: got %v want 0", got)
	}
	if got := ShannonEntropy([]int{5}); got != 0 {
		t.Errorf("single symbol: got %v want 0", got)
	}
	if got := ShannonEntropy([]int{0, 0, 9, 0}); got != 0 {
		t.Errorf("one nonzero symbol: got %v want 0", got)
	}
	if got := ShannonEntropy([]int{1}); got != 0 {
		t.Errorf("single observation: got %v want 0", got)
	}
}

func TestShannonEntropyKnownValue(t *testing.T) {
	// Distribution {3/4, 1/4}: H = 0.75*log2(4/3) + 0.25*log2(4) ≈ 0.811278.
	got := ShannonEntropy([]int{3, 1})
	want := 0.75*math.Log2(4.0/3.0) + 0.25*2
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestShannonEntropyLargeCounts(t *testing.T) {
	// Counts beyond the log2 lookup table must take the math.Log2 path and
	// agree with the analytic value.
	got := ShannonEntropy([]int{1000, 1000})
	if !almostEqual(got, 1.0, 1e-12) {
		t.Errorf("got %v want 1.0", got)
	}
}

func TestNormalizedEntropyBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, 16)
		for _, r := range raw {
			counts[int(r)%16]++
		}
		v := NormalizedEntropy(counts, 16)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizedEntropyAlphabetGuard(t *testing.T) {
	if got := NormalizedEntropy([]int{1, 1}, 1); got != 0 {
		t.Errorf("alphabet=1: got %v want 0", got)
	}
	if got := NormalizedEntropy([]int{1, 1}, 0); got != 0 {
		t.Errorf("alphabet=0: got %v want 0", got)
	}
}

func TestDistributionBasics(t *testing.T) {
	d := NewDistribution([]float64{5, 1, 3, 2, 4})
	if d.N() != 5 {
		t.Fatalf("N: got %d want 5", d.N())
	}
	if d.Min() != 1 || d.Max() != 5 {
		t.Errorf("min/max: got %v/%v want 1/5", d.Min(), d.Max())
	}
	if !almostEqual(d.Mean(), 3, 1e-12) {
		t.Errorf("mean: got %v want 3", d.Mean())
	}
	if !almostEqual(d.Median(), 3, 1e-12) {
		t.Errorf("median: got %v want 3", d.Median())
	}
}

func TestDistributionEmpty(t *testing.T) {
	d := NewDistribution(nil)
	if d.N() != 0 || d.Min() != 0 || d.Max() != 0 || d.Mean() != 0 {
		t.Errorf("empty distribution should return zeros")
	}
	if d.CDF(10) != 0 || d.CCDF(10) != 1 {
		t.Errorf("empty CDF/CCDF: got %v/%v", d.CDF(10), d.CCDF(10))
	}
	if d.CDFSeries(5) != nil {
		t.Errorf("empty CDFSeries should be nil")
	}
}

func TestDistributionCDFInclusive(t *testing.T) {
	d := NewDistribution([]float64{1, 2, 2, 3})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {2.9, 0.75}, {3, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := d.CDF(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("CDF(%v): got %v want %v", c.x, got, c.want)
		}
	}
}

func TestDistributionCDFMonotonic(t *testing.T) {
	f := func(samples []float64, probes []float64) bool {
		for i, s := range samples {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				samples[i] = 0
			}
		}
		d := NewDistribution(samples)
		prev := -1.0
		// Probe in sorted order and check monotonicity.
		dd := NewDistribution(probes)
		for _, p := range dd.sorted {
			if math.IsNaN(p) {
				continue
			}
			v := d.CDF(p)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	d := NewDistribution([]float64{10, 20, 30, 40, 50})
	if got := d.Quantile(0); got != 10 {
		t.Errorf("q0: got %v", got)
	}
	if got := d.Quantile(1); got != 50 {
		t.Errorf("q1: got %v", got)
	}
	if got := d.Quantile(0.5); got != 30 {
		t.Errorf("q0.5: got %v", got)
	}
	if got := d.Quantile(0.25); got != 20 {
		t.Errorf("q0.25: got %v", got)
	}
	// Interpolated quantile.
	if got := d.Quantile(0.1); !almostEqual(got, 14, 1e-9) {
		t.Errorf("q0.1: got %v want 14", got)
	}
}

func TestCDFSeriesShape(t *testing.T) {
	d := NewDistribution([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	pts := d.CDFSeries(11)
	if len(pts) != 11 {
		t.Fatalf("len: got %d want 11", len(pts))
	}
	if pts[0].X != 0 || pts[len(pts)-1].X != 9 {
		t.Errorf("x range: got [%v, %v]", pts[0].X, pts[len(pts)-1].X)
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("final y: got %v want 1", pts[len(pts)-1].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Errorf("series not monotonic at %d", i)
		}
	}
}

func TestCDFSeriesDegenerate(t *testing.T) {
	d := NewDistribution([]float64{7, 7, 7})
	pts := d.CDFSeries(4)
	for _, p := range pts {
		if p.X != 7 || p.Y != 1 {
			t.Errorf("degenerate point: %+v", p)
		}
	}
}

func TestComma(t *testing.T) {
	cases := map[int64]string{
		0:          "0",
		7:          "7",
		999:        "999",
		1000:       "1,000",
		1234567:    "1,234,567",
		7914066999: "7,914,066,999",
		-42:        "-42",
		-1234:      "-1,234",
		21409629:   "21,409,629",
		11613494:   "11,613,494",
		171611786:  "171,611,786",
		14943429:   "14,943,429",
	}
	for in, want := range cases {
		if got := Comma(in); got != want {
			t.Errorf("Comma(%d): got %q want %q", in, got, want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.5, 1); got != "50.0%" {
		t.Errorf("got %q", got)
	}
	if got := Pct(0.034, 1); got != "3.4%" {
		t.Errorf("got %q", got)
	}
	if got := Pct(1, 0); got != "100%" {
		t.Errorf("got %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "count")
	tb.AddRow("alpha", "10")
	tb.AddRowf("beta", 20)
	out := tb.String()
	if out == "" {
		t.Fatal("empty render")
	}
	for _, want := range []string{"Demo", "name", "alpha", "beta", "20"} {
		if !contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only-one")         // short row: remaining cells empty
	tb.AddRow("1", "2", "3", "4") // long row: extra cell dropped
	out := tb.String()
	if contains(out, "4") {
		t.Errorf("extra cell should be dropped:\n%s", out)
	}
}

func TestAsciiCDF(t *testing.T) {
	d := NewDistribution([]float64{0.1, 0.2, 0.5, 0.9})
	out := AsciiCDF("plot", map[string][]CDFPoint{"s": d.CDFSeries(16)}, 20, 6)
	if !contains(out, "plot") || !contains(out, "s") {
		t.Errorf("missing title or legend:\n%s", out)
	}
}

func TestAsciiCDFEmpty(t *testing.T) {
	out := AsciiCDF("empty", nil, 10, 4)
	if !contains(out, "empty") {
		t.Errorf("missing title:\n%s", out)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// refShannonEntropy is ShannonEntropy's original formulation, a branch
// per symbol: the reference the table-driven loop must match bit for bit.
func refShannonEntropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total <= 1 {
		return 0
	}
	var acc float64
	for _, c := range counts {
		switch {
		case c <= 0:
			// no contribution
		case c < len(log2Table):
			acc += float64(c) * log2Table[c]
		default:
			acc += float64(c) * math.Log2(float64(c))
		}
	}
	n := float64(total)
	var logN float64
	if total < len(log2Table) {
		logN = log2Table[total]
	} else {
		logN = math.Log2(n)
	}
	h := logN - acc/n
	if h < 0 {
		return 0
	}
	return h
}

// refNormalizedEntropy is NormalizedEntropy over refShannonEntropy.
func refNormalizedEntropy(counts []int, alphabet int) float64 {
	if alphabet < 2 {
		return 0
	}
	h := refShannonEntropy(counts)
	var maxH float64
	if alphabet < len(log2Table) {
		maxH = log2Table[alphabet]
	} else {
		maxH = math.Log2(float64(alphabet))
	}
	v := h / maxH
	if v > 1 {
		return 1
	}
	return v
}

// FuzzShannonEntropy decodes data as little-endian int16 counts — so
// negatives, zeros and counts past the log2 table all occur — and
// requires both entropies to equal the reference's bits.
func FuzzShannonEntropy(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 0, 0, 3, 0}, uint8(16))
	f.Add([]byte{0xff, 0xff, 64, 0, 65, 0, 0, 1}, uint8(4))
	f.Add([]byte{16, 0}, uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, alphabet uint8) {
		counts := make([]int, len(data)/2)
		for i := range counts {
			counts[i] = int(int16(uint16(data[2*i]) | uint16(data[2*i+1])<<8))
		}
		if g, w := ShannonEntropy(counts), refShannonEntropy(counts); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("ShannonEntropy(%v) = %v, reference %v", counts, g, w)
		}
		a := int(alphabet)
		if g, w := NormalizedEntropy(counts, a), refNormalizedEntropy(counts, a); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("NormalizedEntropy(%v, %d) = %v, reference %v", counts, a, g, w)
		}
	})
}
