package analysis

import (
	"fmt"

	"hitlist6/internal/fold"
	"hitlist6/internal/hitlist"
	"hitlist6/internal/stats"
)

// Table1 holds the three dataset rows of the paper's Table 1, with the
// NTP corpus as the reference for the "Common" columns.
type Table1 struct {
	NTP, Hitlist, CAIDA hitlist.Stats
}

// ComputeTable1Sidecar derives the dataset-comparison table from
// prebuilt sidecars: the AS
// column replaces the per-address trie walks, the /48 columns fall out
// of linear passes over the sorted slabs, and the address intersections
// are sorted merges. The three rows compute in parallel.
func ComputeTable1Sidecar(ntp, hl, caida *Sidecar, workers int) *Table1 {
	t := &Table1{}
	fold.Each(workers,
		func() { t.NTP = sidecarStats(ntp, nil, workers) },
		func() { t.Hitlist = sidecarStats(hl, ntp, workers) },
		func() { t.CAIDA = sidecarStats(caida, ntp, workers) },
	)
	return t
}

// sidecarStats computes one dataset's Table 1 row. reference may be nil.
func sidecarStats(sc, reference *Sidecar, workers int) hitlist.Stats {
	st := hitlist.Stats{Name: sc.D.Name, Addrs: sc.Len(), P48s: sc.D.CountP48s()}
	asns := sc.ByAS(workers)
	st.ASNs = len(asns)
	if st.P48s > 0 {
		st.AvgPer48 = float64(st.Addrs) / float64(st.P48s)
	}
	if reference != nil {
		st.CommonAddrs = hitlist.IntersectionSize(sc.D, reference.D)
		st.CommonP48s = hitlist.CommonP48s(sc.D, reference.D)
		//lint:ordered counting set-intersection size is commutative; no order reaches the output
		for asn := range reference.ByAS(workers) {
			if _, ok := asns[asn]; ok {
				st.CommonASNs++
			}
		}
	}
	return st
}

// Render prints the table in the paper's layout.
func (t *Table1) Render() string {
	tb := stats.NewTable("Table 1: Comparison of IPv6 datasets",
		"Dataset", "IPv6 Addresses", "Common", "ASNs", "Common", "/48s", "Common", "Avg/48")
	row := func(s hitlist.Stats, isRef bool) {
		common := func(v int) string {
			if isRef {
				return "-"
			}
			return stats.Comma(int64(v))
		}
		tb.AddRow(s.Name,
			stats.Comma(int64(s.Addrs)), common(s.CommonAddrs),
			stats.Comma(int64(s.ASNs)), common(s.CommonASNs),
			stats.Comma(int64(s.P48s)), common(s.CommonP48s),
			fmt.Sprintf("%.1f", s.AvgPer48))
	}
	row(t.NTP, true)
	row(t.Hitlist, false)
	row(t.CAIDA, false)
	return tb.String()
}
