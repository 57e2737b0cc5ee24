package analysis

import (
	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
	"hitlist6/internal/fold"
)

// CategoryBreakdown is one dataset's Figure 5 bar set: the fraction of
// addresses in each of the seven categories.
type CategoryBreakdown struct {
	Counts    [addr.NumCategories]int
	Fractions [addr.NumCategories]float64
	Total     int
}

// v4Rule is the paper's two-rule filter for accepting IPv4-embedded
// addresses: a candidate only counts when its AS has at least MinInstances
// candidates and they make up at least MinShare of the AS's addresses.
type v4Rule struct {
	MinInstances int
	MinShare     float64
}

// defaultV4Rule uses the paper's thresholds (>=100 instances, >=10%).
var defaultV4Rule = v4Rule{MinInstances: 100, MinShare: 0.10}

// scaledRule lowers the paper's absolute MinInstances threshold
// proportionally for small (simulated) datasets, with a floor of 5,
// because the threshold of 100 assumes a billions-scale corpus.
func scaledRule(n int) v4Rule {
	rule := defaultV4Rule
	if n < 1_000_000 {
		rule.MinInstances = n / 10_000
		if rule.MinInstances < 5 {
			rule.MinInstances = 5
		}
	}
	return rule
}

// CategorizeSidecar computes the Figure 5 breakdown from a sidecar's
// columns as two parallel folds.
func CategorizeSidecar(sc *Sidecar, workers int) *CategoryBreakdown {
	return categorizeSidecar(sc, scaledRule(sc.Len()), workers)
}

// v4Tally is the per-AS (total, candidate) pair of categorize's first
// pass.
type v4Tally struct{ total, cand int }

func categorizeSidecar(sc *Sidecar, rule v4Rule, workers int) *CategoryBreakdown {
	view := sc.D.View()

	// Pass 1: per-AS totals and v4-candidate counts. A candidate must
	// decode to an IPv4 address under one of the three encodings; the
	// AS-consistency requirement ("in the same AS as the IPv6 address
	// they are embedded in") is modelled as the candidate decoding
	// successfully for a routed address, since the simulator has no
	// parallel IPv4 topology. The two-rule volume filter is what kills
	// random-IID false positives either way.
	byAS := fold.Map(sc.Len(), workers,
		func(lo, hi int) map[asdb.ASN]v4Tally {
			part := make(map[asdb.ASN]v4Tally)
			for i := lo; i < hi; i++ {
				if !sc.HasAS[i] {
					continue
				}
				t := part[sc.ASN[i]]
				t.total++
				if sc.V4Cand[i] {
					t.cand++
				}
				part[sc.ASN[i]] = t
			}
			return part
		},
		func(dst, src map[asdb.ASN]v4Tally) map[asdb.ASN]v4Tally {
			//lint:ordered per-key tally sums commute; the merged map carries no order
			for asn, t := range src {
				d := dst[asn]
				d.total += t.total
				d.cand += t.cand
				dst[asn] = d
			}
			return dst
		})
	accepted := make(map[asdb.ASN]bool)
	//lint:ordered map-to-set projection; membership is order-independent
	for asn, t := range byAS {
		if t.cand >= rule.MinInstances && float64(t.cand) >= rule.MinShare*float64(t.total) {
			accepted[asn] = true
		}
	}

	// Pass 2: categorize. The unconfirmed category is precomputed in the
	// sidecar; only the (rare) accepted v4 candidates re-categorize with
	// the embedding confirmed.
	out := fold.Map(sc.Len(), workers,
		func(lo, hi int) *CategoryBreakdown {
			part := &CategoryBreakdown{}
			for i := lo; i < hi; i++ {
				cat := sc.Cat[i]
				if sc.V4Cand[i] && sc.HasAS[i] && accepted[sc.ASN[i]] {
					cat = view[i].IID().Categorize(true)
				}
				part.Counts[cat]++
				part.Total++
			}
			return part
		},
		func(dst, src *CategoryBreakdown) *CategoryBreakdown {
			if dst == nil {
				return src
			}
			if src != nil {
				for i, n := range src.Counts {
					dst.Counts[i] += n
				}
				dst.Total += src.Total
			}
			return dst
		})
	if out == nil {
		out = &CategoryBreakdown{}
	}
	if out.Total > 0 {
		for i, n := range out.Counts {
			out.Fractions[i] = float64(n) / float64(out.Total)
		}
	}
	return out
}

// Figure5 pairs the NTP and Hitlist single-day breakdowns.
type Figure5 struct {
	NTP, Hitlist *CategoryBreakdown
}

// ComputeFigure5Sidecar builds Figure 5 from the sidecars of the two
// single-day datasets, the two breakdowns in parallel.
func ComputeFigure5Sidecar(ntpDay, hitlistDay *Sidecar, workers int) *Figure5 {
	f := &Figure5{}
	fold.Each(workers,
		func() { f.NTP = CategorizeSidecar(ntpDay, workers) },
		func() { f.Hitlist = CategorizeSidecar(hitlistDay, workers) },
	)
	return f
}
