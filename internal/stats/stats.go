// Package stats provides the numerical building blocks shared by every
// analysis in the repository: Shannon entropy, empirical distribution
// functions (CDF/CCDF), quantiles, and small formatting helpers used when
// rendering the paper's tables and figures as text.
//
// All functions are deterministic and allocation-conscious; the hot paths
// (entropy over nibbles, distribution construction) are exercised by the
// repository's benchmark harness.
package stats

import (
	"math"
	"sort"
)

// log2Table caches log2(k) for small k so that entropy over a 16-symbol
// alphabet never calls math.Log2 at runtime. Index 0 is unused.
// termTable[k] is k*log2(k), the symbol term ShannonEntropy sums; it is
// 0 for k <= 1, so an absent symbol adds an exact +0.
var log2Table, termTable [65]float64

func init() {
	for i := 1; i < len(log2Table); i++ {
		log2Table[i] = math.Log2(float64(i))
		termTable[i] = float64(i) * log2Table[i]
	}
}

// ShannonEntropy returns the Shannon entropy, in bits, of the empirical
// symbol distribution described by counts. Zero counts contribute nothing.
// The result is 0 for an empty or single-symbol distribution.
func ShannonEntropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total <= 1 {
		return 0
	}
	// H = log2(N) - (1/N) * sum(c * log2(c)). Every count a table
	// covers takes the first branch, so it predicts perfectly; negative
	// counts wrap past the table and add nothing.
	var acc float64
	for _, c := range counts {
		if uint(c) < uint(len(termTable)) {
			acc += termTable[c]
		} else if c > 0 {
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

// NormalizedEntropy returns ShannonEntropy(counts) divided by the maximum
// entropy attainable with the given alphabet size, yielding a value in
// [0, 1]. alphabet must be >= 2.
func NormalizedEntropy(counts []int, alphabet int) float64 {
	if alphabet < 2 {
		return 0
	}
	h := ShannonEntropy(counts)
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

// Distribution is an empirical distribution over float64 samples. It is
// built once and then queried for CDF/CCDF values, quantiles and summary
// statistics. The zero value is an empty distribution.
type Distribution struct {
	sorted []float64
}

// NewDistribution copies and sorts samples into a queryable Distribution.
func NewDistribution(samples []float64) *Distribution {
	cp := make([]float64, len(samples))
	copy(cp, samples)
	return TakeDistribution(cp)
}

// TakeDistribution builds a Distribution that takes ownership of samples,
// sorting them in place with no copy — the allocation-free form for
// callers that built the slice themselves (the analysis engine's fold
// partials). The caller must not use samples afterwards. The result is
// identical to NewDistribution over the same values.
func TakeDistribution(samples []float64) *Distribution {
	d := &Distribution{sorted: samples}
	sort.Float64s(d.sorted)
	return d
}

// N returns the number of samples.
func (d *Distribution) N() int { return len(d.sorted) }

// Min returns the smallest sample, or 0 for an empty distribution.
func (d *Distribution) Min() float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sorted[0]
}

// Max returns the largest sample, or 0 for an empty distribution.
func (d *Distribution) Max() float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sorted[len(d.sorted)-1]
}

// CDF returns P(X <= x).
func (d *Distribution) CDF(x float64) float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(d.sorted, x)
	// SearchFloat64s returns the first index with sorted[i] >= x; advance
	// over equal values to make the comparison inclusive.
	for i < len(d.sorted) && d.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(d.sorted))
}

// CCDF returns P(X > x) = 1 - CDF(x).
func (d *Distribution) CCDF(x float64) float64 { return 1 - d.CDF(x) }

// Quantile returns the q-th quantile (0 <= q <= 1) using nearest-rank
// interpolation. Quantile(0.5) is the median.
func (d *Distribution) Quantile(q float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return d.sorted[0]
	}
	if q >= 1 {
		return d.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return d.sorted[lo]
	}
	frac := pos - float64(lo)
	return d.sorted[lo]*(1-frac) + d.sorted[hi]*frac
}

// Median is shorthand for Quantile(0.5).
func (d *Distribution) Median() float64 { return d.Quantile(0.5) }

// CDFPoint is one (x, y) sample of an empirical distribution function.
type CDFPoint struct {
	X float64
	Y float64
}

// CDFSeries evaluates the CDF at n evenly spaced points spanning
// [Min, Max]. It returns nil for an empty distribution.
func (d *Distribution) CDFSeries(n int) []CDFPoint {
	if len(d.sorted) == 0 || n <= 0 {
		return nil
	}
	lo, hi := d.Min(), d.Max()
	pts := make([]CDFPoint, n)
	if n == 1 || hi == lo {
		for i := range pts {
			pts[i] = CDFPoint{X: hi, Y: 1}
		}
		return pts
	}
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		x := lo + float64(i)*step
		pts[i] = CDFPoint{X: x, Y: d.CDF(x)}
	}
	return pts
}
