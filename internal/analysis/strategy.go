package analysis

import (
	"fmt"
	"sort"
	"strings"

	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
	"hitlist6/internal/fold"
	"hitlist6/internal/stats"
)

// §4.3's addressing-strategy analysis: the paper inspects per-AS entropy
// curves and infers, e.g., that Reliance Jio runs two address-assignment
// schemes (full 8-byte randomization and low-4-byte randomization). This
// module automates that inference: per AS, it fingerprints the IID
// population and detects multi-modal entropy structure.

// StrategyProfile is one AS's inferred addressing behaviour.
type StrategyProfile struct {
	ASN  asdb.ASN
	Name string
	// Addresses analyzed.
	Count int
	// Shares of structural fingerprints.
	EUI64Share    float64
	LowByteShare  float64
	Low4RandShare float64 // top 4 IID bytes zero, bottom 4 high-entropy
	FullRandShare float64 // all 8 bytes high-entropy
	OtherShare    float64
	// Bimodal is true when the entropy distribution has two well-
	// separated modes (the Jio signature).
	Bimodal bool
	// ModeLow and ModeHigh are the sub-population entropy medians when
	// Bimodal (low/high of the two clusters).
	ModeLow, ModeHigh float64
}

// bimodalGap is the minimum separation between entropy cluster means to
// call a distribution bimodal.
const bimodalGap = 0.18

// InferStrategiesSidecar profiles the topN most-observed ASes of a
// dataset: the per-AS grouping is the sidecar's shared one (ByAS), its
// entropy column replaces the per-IID recomputation, and the per-AS
// profiles build in parallel.
func InferStrategiesSidecar(sc *Sidecar, db *asdb.DB, topN int, workers int) []StrategyProfile {
	byAS := sc.ByAS(workers)
	profiles := make([]StrategyProfile, 0, len(byAS))
	for asn, idxs := range byAS {
		profiles = append(profiles, StrategyProfile{ASN: asn, Count: len(idxs)})
	}
	sort.Slice(profiles, func(i, j int) bool {
		if profiles[i].Count != profiles[j].Count {
			return profiles[i].Count > profiles[j].Count
		}
		return profiles[i].ASN < profiles[j].ASN
	})
	if topN > 0 && len(profiles) > topN {
		profiles = profiles[:topN]
	}
	view := sc.D.View()
	// One task per AS: few heavy profiles, so per-item dispatch rather
	// than grained ranges.
	tasks := make([]func(), len(profiles))
	for i := range profiles {
		p := &profiles[i]
		tasks[i] = func() {
			profileAS(p, byAS[p.ASN], view, sc.Entropy)
			if as := db.Get(p.ASN); as != nil {
				p.Name = as.Name
			}
		}
	}
	fold.Each(workers, tasks...)
	return profiles
}

// profileAS fingerprints one AS's IID population. idxs are the AS's rows
// in the dataset slab (canonical order); entropy is the sidecar column.
func profileAS(p *StrategyProfile, idxs []int32, view []addr.Addr, entropy []float64) {
	if len(idxs) == 0 {
		return
	}
	entropies := make([]float64, 0, len(idxs))
	for _, ix := range idxs {
		iid := view[ix].IID()
		e := entropy[ix]
		entropies = append(entropies, e)
		v := uint64(iid)
		switch {
		case iid.IsEUI64():
			p.EUI64Share++
		case v&^0xffff == 0:
			p.LowByteShare++ // low byte or low-2-bytes
		case v>>32 == 0 && addr.IID(v).EntropyClass() != addr.LowEntropy:
			p.Low4RandShare++
		case e > 0.75:
			p.FullRandShare++
		default:
			p.OtherShare++
		}
	}
	n := float64(len(idxs))
	p.EUI64Share /= n
	p.LowByteShare /= n
	p.Low4RandShare /= n
	p.FullRandShare /= n
	p.OtherShare /= n
	p.Bimodal, p.ModeLow, p.ModeHigh = detectBimodal(entropies)
}

// detectBimodal runs a tiny 1-D 2-means clustering on the entropy values
// and reports whether two well-populated, well-separated clusters exist.
func detectBimodal(values []float64) (bool, float64, float64) {
	if len(values) < 20 {
		return false, 0, 0
	}
	d := stats.NewDistribution(values)
	// Initialize means at the 20th/80th percentiles.
	lo, hi := d.Quantile(0.2), d.Quantile(0.8)
	if hi-lo < 1e-9 {
		return false, 0, 0
	}
	var nLo, nHi int
	for iter := 0; iter < 16; iter++ {
		var sumLo, sumHi float64
		nLo, nHi = 0, 0
		mid := (lo + hi) / 2
		for _, v := range values {
			if v < mid {
				sumLo += v
				nLo++
			} else {
				sumHi += v
				nHi++
			}
		}
		if nLo == 0 || nHi == 0 {
			return false, 0, 0
		}
		newLo, newHi := sumLo/float64(nLo), sumHi/float64(nHi)
		if newLo == lo && newHi == hi {
			break
		}
		lo, hi = newLo, newHi
	}
	// Both clusters must hold a meaningful share and sit apart.
	minShare := 0.15
	total := float64(len(values))
	if float64(nLo)/total < minShare || float64(nHi)/total < minShare {
		return false, 0, 0
	}
	if hi-lo < bimodalGap {
		return false, 0, 0
	}
	return true, lo, hi
}

// RenderStrategies formats the §4.3 analysis.
func RenderStrategies(profiles []StrategyProfile) string {
	var b strings.Builder
	tb := stats.NewTable(
		"Section 4.3: per-AS addressing strategies (paper: Jio runs full- and low-4-byte randomization side by side)",
		"AS", "Addrs", "FullRand", "Low4Rand", "EUI-64", "LowByte", "Bimodal")
	for _, p := range profiles {
		bimodal := "-"
		if p.Bimodal {
			bimodal = fmt.Sprintf("yes (%.2f / %.2f)", p.ModeLow, p.ModeHigh)
		}
		tb.AddRow(fmt.Sprintf("AS%d %s", p.ASN, p.Name),
			stats.Comma(int64(p.Count)),
			stats.Pct(p.FullRandShare, 1),
			stats.Pct(p.Low4RandShare, 1),
			stats.Pct(p.EUI64Share, 1),
			stats.Pct(p.LowByteShare, 1),
			bimodal)
	}
	b.WriteString(tb.String())
	return b.String()
}
