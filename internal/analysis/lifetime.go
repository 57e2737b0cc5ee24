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

// appendFloats is the fold merge for sample gathering: concatenation in
// range order reproduces the serial scan's sample sequence exactly.
func appendFloats(dst, src []float64) []float64 { return append(dst, src...) }

// AddressLifetimes builds the distribution of observed address lifetimes
// in seconds (Figure 2a's CCDF input) as a parallel fold over the
// corpus's address records.
func AddressLifetimes(c *collector.Collector, workers int) *stats.Distribution {
	samples := fold.Map(c.NumAddrs(), workers,
		func(lo, hi int) []float64 {
			part := make([]float64, 0, hi-lo)
			c.AddrsRange(lo, hi, func(_ addr.Addr, r collector.AddrRecord) bool {
				part = append(part, r.Lifetime().Seconds())
				return true
			})
			return part
		}, appendFloats)
	return stats.TakeDistribution(samples)
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

// ComputeFigure2aWorkers evaluates Figure 2a from a collector on the
// given worker count.
func ComputeFigure2aWorkers(c *collector.Collector, workers int) *Figure2a {
	dist := AddressLifetimes(c, workers)
	marks := make([]float64, len(LifetimeMarks))
	for i, m := range LifetimeMarks {
		marks[i] = m.Seconds()
	}
	f := &Figure2a{CCDF: dist.CCDFAt(marks)}
	n := float64(dist.N())
	if n == 0 {
		return f
	}
	f.ObservedOnce = dist.CDF(0)
	f.WeekOrLonger = dist.CCDF((7*24*time.Hour - time.Second).Seconds())
	f.MonthOrLonger = dist.CCDF((30*24*time.Hour - time.Second).Seconds())
	f.SixMonthsOrLonger = dist.CCDF((180 * 24 * time.Hour).Seconds())
	return f
}

// Figure2b is the CDF of IID lifetimes split by entropy class.
type Figure2b struct {
	// ByClass maps each entropy class to its lifetime distribution.
	ByClass map[addr.EntropyClass]*stats.Distribution
	// ObservedOnce per class (paper: low-entropy IIDs are seen once ~10%
	// more often, yet persist longer).
	ObservedOnce map[addr.EntropyClass]float64
	// WeekOrLonger per class (paper: 10% of low vs <=5% of med/high).
	WeekOrLonger map[addr.EntropyClass]float64
}

// numEntropyClasses sizes the per-class fold accumulators (Low/Medium/
// High).
const numEntropyClasses = int(addr.HighEntropy) + 1

// ComputeFigure2bWorkers evaluates Figure 2b as a parallel fold over a
// corpus's IID table. Each class's samples are sorted into a
// distribution, so the table's slot order never reaches the result.
func ComputeFigure2bWorkers(t *collector.IIDTable, workers int) *Figure2b {
	samples := fold.Map(t.NumIIDSlots(), workers,
		func(lo, hi int) *[numEntropyClasses][]float64 {
			part := &[numEntropyClasses][]float64{}
			t.IIDSlotsRange(lo, hi, func(iid addr.IID, r collector.IIDView) bool {
				cls := iid.EntropyClass()
				part[cls] = append(part[cls], r.Lifetime().Seconds())
				return true
			})
			return part
		},
		func(dst, src *[numEntropyClasses][]float64) *[numEntropyClasses][]float64 {
			if dst == nil {
				return src
			}
			if src != nil {
				for i := range dst {
					dst[i] = append(dst[i], src[i]...)
				}
			}
			return dst
		})
	f := &Figure2b{
		ByClass:      make(map[addr.EntropyClass]*stats.Distribution),
		ObservedOnce: make(map[addr.EntropyClass]float64),
		WeekOrLonger: make(map[addr.EntropyClass]float64),
	}
	if samples == nil {
		return f
	}
	week := (7*24*time.Hour - time.Second).Seconds()
	for cls, s := range samples {
		if len(s) == 0 {
			continue
		}
		d := stats.TakeDistribution(s)
		f.ByClass[addr.EntropyClass(cls)] = d
		f.ObservedOnce[addr.EntropyClass(cls)] = d.CDF(0)
		f.WeekOrLonger[addr.EntropyClass(cls)] = d.CCDF(week)
	}
	return f
}
