package analysis

import (
	"hitlist6/internal/addr"
	"hitlist6/internal/cardinality"
	"hitlist6/internal/collector"
	"hitlist6/internal/fold"
)

// Corpus is what a corpus fold reads a range at a time: a live
// collector.Collector (ingestd's tally) or a study's collector.Records.
type Corpus interface {
	NumAddrs() int
	AddrsRange(lo, hi int, fn func(a addr.Addr, r collector.AddrRecord) bool)
}

// AddressSketch adds the addresses at positions [lo, hi) of c to
// sketch — nil for a new one, else an earlier call's result — and
// returns it: the constant-space unique count a deployment too large
// for exact sets would keep, filled as a parallel fold over the corpus's
// address records. Sketches merge by register-wise max, which is exactly
// what serial insertion computes, so the registers depend on the set of
// addresses added alone: not on workers, and not on how a caller
// resuming the fold cut [0, NumAddrs()) into successive calls.
func AddressSketch(sketch *cardinality.HLL, c Corpus, lo, hi, workers int) *cardinality.HLL {
	if sketch == nil {
		sketch = newSketch()
	}
	// One precision builds every sketch, so Merge cannot fail.
	merge := func(dst, src *cardinality.HLL) *cardinality.HLL {
		_ = dst.Merge(src)
		return dst
	}
	part := fold.Map(hi-lo, workers, func(from, to int) *cardinality.HLL {
		part := newSketch()
		c.AddrsRange(lo+from, lo+to, func(a addr.Addr, _ collector.AddrRecord) bool {
			part.AddAddr(a)
			return true
		})
		return part
	}, merge)
	if part != nil { // nil: the range was empty
		merge(sketch, part)
	}
	return sketch
}

// newSketch returns an empty sketch at the one precision the repository
// reports at: 2^14 registers, 16 KiB, ±0.8 %.
func newSketch() *cardinality.HLL {
	h, err := cardinality.NewHLL(14)
	if err != nil {
		panic(err) // 14 is in NewHLL's range
	}
	return h
}
