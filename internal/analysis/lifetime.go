package analysis

import (
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/fold"
	"hitlist6/internal/stats"
)

// LifetimeMarks are the x-axis tick durations the paper's Figure 2 uses.
var LifetimeMarks = []time.Duration{
	time.Second, time.Minute, time.Hour,
	24 * time.Hour, 7 * 24 * time.Hour, 30 * 24 * time.Hour, 180 * 24 * time.Hour,
}

// The headline thresholds, in seconds: "a week or longer" is a lifetime
// above a week less one second, and likewise for a month.
var (
	weekLess1  = (7*24*time.Hour - time.Second).Seconds()
	monthLess1 = (30*24*time.Hour - time.Second).Seconds()
	sixMonths  = (180 * 24 * time.Hour).Seconds()
)

// countAtMost adds one sample v to a counting fold's partial: le[i]
// counts the samples <= xs[i], and le[len(xs)] counts every sample.
// That is all a CDF read at fixed points needs, so Figure 2 never
// gathers or sorts its samples.
func countAtMost(le []int, xs []float64, v float64) {
	for i, x := range xs {
		if v <= x {
			le[i]++
		}
	}
	le[len(xs)]++
}

// addCounts is the counting folds' merge.
func addCounts(dst, src []int) []int {
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// fraction is Distribution.CDF's arithmetic over counts: le of n
// samples, or 0 when there are none. 1 − fraction is its CCDF.
func fraction(le, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(le) / float64(n)
}

// Figure2a is the CCDF of address lifetimes evaluated at the paper's
// marks, plus the headline fractions the paper quotes in §4.1.
type Figure2a struct {
	CCDF []stats.CDFPoint
	// ObservedOnce is the fraction of addresses with zero lifetime
	// (paper: "more than 60% of them are observed only once").
	ObservedOnce float64
	// WeekOrLonger, MonthOrLonger, SixMonthsOrLonger are the long-tail
	// fractions (paper: 1.2%, 0.4%, 0.03%).
	WeekOrLonger, MonthOrLonger, SixMonthsOrLonger float64
}

// ComputeFigure2aWorkers evaluates Figure 2a from a corpus on the given
// worker count: one counting fold over the address records' lifetimes in
// seconds, at the marks and the headline thresholds.
func ComputeFigure2aWorkers(c Corpus, workers int) *Figure2a {
	marks := len(LifetimeMarks)
	xs := make([]float64, marks, marks+4)
	for i, m := range LifetimeMarks {
		xs[i] = m.Seconds()
	}
	xs = append(xs, 0, weekLess1, monthLess1, sixMonths)
	le := fold.Map(c.NumAddrs(), workers,
		func(lo, hi int) []int {
			part := make([]int, len(xs)+1)
			c.AddrsRange(lo, hi, func(_ addr.Addr, r collector.AddrRecord) bool {
				countAtMost(part, xs, r.Lifetime().Seconds())
				return true
			})
			return part
		}, addCounts)
	if le == nil {
		le = make([]int, len(xs)+1)
	}
	n := le[len(xs)]
	f := &Figure2a{CCDF: make([]stats.CDFPoint, marks)}
	for i := range f.CCDF {
		f.CCDF[i] = stats.CDFPoint{X: xs[i], Y: 1 - fraction(le[i], n)}
	}
	if n == 0 {
		return f
	}
	h := le[marks:]
	f.ObservedOnce = fraction(h[0], n)
	f.WeekOrLonger = 1 - fraction(h[1], n)
	f.MonthOrLonger = 1 - fraction(h[2], n)
	f.SixMonthsOrLonger = 1 - fraction(h[3], n)
	return f
}

// Figure2b is the CDF of IID lifetimes split by entropy class.
type Figure2b struct {
	// ByClass maps each entropy class seen to its number of IIDs.
	ByClass map[addr.EntropyClass]int
	// ObservedOnce per class (paper: low-entropy IIDs are seen once ~10%
	// more often, yet persist longer).
	ObservedOnce map[addr.EntropyClass]float64
	// WeekOrLonger per class (paper: 10% of low vs <=5% of med/high).
	WeekOrLonger map[addr.EntropyClass]float64
}

// numEntropyClasses sizes the per-class fold accumulators (Low/Medium/
// High).
const numEntropyClasses = int(addr.HighEntropy) + 1

// ComputeFigure2bWorkers evaluates Figure 2b as a counting fold over a
// corpus's IID table: per entropy class, the IIDs seen and those whose
// lifetime is at most zero or at most a week less one second. Counts
// commute, so the table's slot order never reaches the result.
func ComputeFigure2bWorkers(t *collector.IIDTable, workers int) *Figure2b {
	xs := []float64{0, weekLess1}
	w := len(xs) + 1 // one class's counts
	le := fold.Map(t.NumIIDSlots(), workers,
		func(lo, hi int) []int {
			part := make([]int, numEntropyClasses*w)
			t.IIDSlotsRange(lo, hi, func(iid addr.IID, r collector.IIDView) bool {
				cls := int(iid.EntropyClass())
				countAtMost(part[cls*w:(cls+1)*w], xs, r.Lifetime().Seconds())
				return true
			})
			return part
		}, addCounts)
	f := &Figure2b{
		ByClass:      make(map[addr.EntropyClass]int),
		ObservedOnce: make(map[addr.EntropyClass]float64),
		WeekOrLonger: make(map[addr.EntropyClass]float64),
	}
	for cls := 0; cls < len(le)/w; cls++ {
		c := le[cls*w : (cls+1)*w]
		n := c[len(xs)]
		if n == 0 {
			continue
		}
		k := addr.EntropyClass(cls)
		f.ByClass[k] = n
		f.ObservedOnce[k] = fraction(c[0], n)
		f.WeekOrLonger[k] = 1 - fraction(c[1], n)
	}
	return f
}
