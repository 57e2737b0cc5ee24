// Package analysis computes the paper's evaluation artifacts from built
// datasets and collectors: the Table 1 dataset comparison, the entropy
// CDFs of Figures 1, 3 and 4, the lifetime distributions of Figure 2, and
// the seven-category addressing breakdown of Figure 5.
//
// Every computation here is expressed as a fold — accumulate over a
// contiguous range of a dataset's sorted slab (or a collector's record
// slab), then merge partials in range order — so each runs shard-parallel
// on the worker count the caller passes and produces bit-identical
// results at every worker count (see internal/fold). The per-address
// attributes feeding the folds come from a Sidecar, computed once per
// dataset and shared by every figure.
package analysis

import (
	"sort"

	"hitlist6/internal/asdb"
	"hitlist6/internal/fold"
	"hitlist6/internal/hitlist"
	"hitlist6/internal/stats"
)

// EntropyDist builds the dataset-level entropy distribution from the
// sidecar's precomputed column.
func (sc *Sidecar) EntropyDist() *stats.Distribution {
	// The column stays alive for other consumers; copy before the
	// in-place sort.
	return stats.NewDistribution(sc.Entropy)
}

// intersectionEntropy builds the entropy distribution over the
// addresses common to two datasets (Figure 1's "NTP ∩ Hitlist" and
// "NTP ∩ CAIDA" curves): a linear merge of the two sorted slabs, reading
// the entropy from a's sidecar column.
func intersectionEntropy(a, b *Sidecar) *stats.Distribution {
	var samples []float64
	hitlist.EachCommon(a.D, b.D, func(ai, _ int) bool {
		samples = append(samples, a.Entropy[ai])
		return true
	})
	return stats.TakeDistribution(samples)
}

// Figure1 bundles the five curves of Figure 1.
type Figure1 struct {
	NTP, Hitlist, CAIDA    *stats.Distribution
	NTPxHitlist, NTPxCAIDA *stats.Distribution
}

// ComputeFigure1Sidecar builds every Figure 1 curve from prebuilt
// sidecars, the five curves in parallel.
func ComputeFigure1Sidecar(ntp, hl, caida *Sidecar, workers int) *Figure1 {
	f := &Figure1{}
	fold.Each(workers,
		func() { f.NTP = ntp.EntropyDist() },
		func() { f.Hitlist = hl.EntropyDist() },
		func() { f.CAIDA = caida.EntropyDist() },
		func() { f.NTPxHitlist = intersectionEntropy(ntp, hl) },
		func() { f.NTPxCAIDA = intersectionEntropy(ntp, caida) },
	)
	return f
}

// ASEntropy is one AS's entropy curve with its address count (Figure 4).
type ASEntropy struct {
	ASN   asdb.ASN
	Name  string
	Count int
	Dist  *stats.Distribution
}

// TopASEntropySidecar groups a dataset by origin AS and returns the
// entropy distributions of the topN most-observed ASes, descending by
// address count (Figures 4a and 4b). The AS grouping is the sidecar's
// shared one (ByAS) and the per-AS distributions reuse its entropy
// column, built in parallel across ASes.
func TopASEntropySidecar(sc *Sidecar, db *asdb.DB, topN int, workers int) []ASEntropy {
	byAS := sc.ByAS(workers)
	out := make([]ASEntropy, 0, len(byAS))
	//lint:ordered every append is washed by the (Count, ASN) total-order sort below
	for asn, idxs := range byAS {
		e := ASEntropy{ASN: asn, Count: len(idxs)}
		if as := db.Get(asn); as != nil {
			e.Name = as.Name
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].ASN < out[j].ASN
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	// A handful of heavy items, not many cheap ones: dispatch one task
	// per AS (fold.Ranges' element grain would lump them onto one
	// worker).
	tasks := make([]func(), len(out))
	for i := range out {
		i := i
		tasks[i] = func() {
			idxs := byAS[out[i].ASN]
			samples := make([]float64, len(idxs))
			for j, ix := range idxs {
				samples[j] = sc.Entropy[ix]
			}
			out[i].Dist = stats.TakeDistribution(samples)
		}
	}
	fold.Each(workers, tasks...)
	return out
}

// asTypeCounts is the ASTypeShareSidecar fold accumulator.
type asTypeCounts struct {
	counts [asdb.NumASTypes]int
	total  int
}

// ASTypeShareSidecar tallies the fraction of a dataset's addresses per
// ASdb type (§4.1's "Phone Provider" comparison) as a parallel fold over
// the sidecar's type column.
func ASTypeShareSidecar(sc *Sidecar, workers int) map[asdb.ASType]float64 {
	acc := fold.Map(sc.Len(), workers,
		func(lo, hi int) asTypeCounts {
			var p asTypeCounts
			for i := lo; i < hi; i++ {
				if sc.HasAS[i] {
					p.counts[sc.ASType[i]]++
					p.total++
				}
			}
			return p
		},
		func(dst, src asTypeCounts) asTypeCounts {
			for i := range dst.counts {
				dst.counts[i] += src.counts[i]
			}
			dst.total += src.total
			return dst
		})
	out := make(map[asdb.ASType]float64)
	if acc.total == 0 {
		return out
	}
	for ty, n := range acc.counts {
		if n > 0 {
			out[asdb.ASType(ty)] = float64(n) / float64(acc.total)
		}
	}
	return out
}
