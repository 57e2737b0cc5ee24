package analysis

import (
	"sync"

	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
	"hitlist6/internal/fold"
	"hitlist6/internal/hitlist"
)

// Sidecar is a dataset's per-address attribute cache: one columnar array
// per attribute, index-aligned with the dataset's canonical sorted slab
// (Dataset.View). Every figure, Table 1 and the strategy inference read
// the same columns, so the asdb trie walk, the nibble-entropy loop and
// the IPv4-embedding decode run exactly once per address per dataset —
// instead of once per analysis — and the columns are filled by one
// parallel pass (disjoint index ranges write disjoint column segments,
// so workers never coordinate).
//
// A built sidecar is immutable and safe for concurrent readers; the
// lazily built per-AS grouping is guarded by a sync.Once so concurrent
// report sections can share it.
type Sidecar struct {
	D *hitlist.Dataset

	// Entropy is the normalized IID nibble entropy.
	Entropy []float64
	// HasAS reports whether the address is routed; ASN and ASType are
	// only meaningful where it is true. These columns (and V4Cand/Cat)
	// are nil on an entropy-only sidecar — one built with a nil AS
	// database.
	HasAS  []bool
	ASN    []asdb.ASN
	ASType []asdb.ASType
	// V4Cand reports whether the IID decodes as an embedded IPv4 address
	// under any of the paper's three encodings; Cat is the Figure 5
	// category with the v4 embedding unconfirmed (Categorize(false)).
	// Confirmed categories are recomputed per accepted AS — see
	// categorizeSidecar.
	V4Cand []bool
	Cat    []addr.Category

	byAS     map[asdb.ASN][]int32
	byASOnce sync.Once
}

// BuildSidecar computes a dataset's attribute columns in one parallel
// pass. A nil db builds the entropy-only sidecar — no AS, v4-candidacy
// or category columns — for consumers like Figure 1 that read nothing
// but the Entropy column; the skipped decodes are most of a full
// build's per-address cost.
func BuildSidecar(d *hitlist.Dataset, db *asdb.DB, workers int) *Sidecar {
	view := d.View()
	n := len(view)
	sc := &Sidecar{
		D:       d,
		Entropy: make([]float64, n),
	}
	if db == nil {
		fold.Ranges(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sc.Entropy[i] = view[i].IID().NormalizedEntropy()
			}
		})
		return sc
	}
	sc.HasAS = make([]bool, n)
	sc.ASN = make([]asdb.ASN, n)
	sc.ASType = make([]asdb.ASType, n)
	sc.V4Cand = make([]bool, n)
	sc.Cat = make([]addr.Category, n)
	fold.Ranges(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a := view[i]
			iid := a.IID()
			e := iid.NormalizedEntropy()
			sc.Entropy[i] = e
			sc.V4Cand[i] = len(iid.V4AnyCandidate()) > 0
			sc.Cat[i] = iid.CategoryFromEntropy(e) // Categorize(false)
			if as := db.Lookup(a); as != nil {
				sc.HasAS[i] = true
				sc.ASN[i] = as.ASN
				sc.ASType[i] = as.Type
			}
		}
	})
	return sc
}

// Len returns the number of addresses (and rows in every column).
func (sc *Sidecar) Len() int { return len(sc.Entropy) }

// ByAS groups the dataset's row indices by origin AS (routed rows only),
// each group in ascending index — i.e. canonical address — order. It is
// computed once, in parallel, on first use and shared by Table 1,
// Figures 4a/4b, Figure 5's volume filter and the strategy inference.
func (sc *Sidecar) ByAS(workers int) map[asdb.ASN][]int32 {
	sc.byASOnce.Do(func() {
		if sc.HasAS == nil { // entropy-only sidecar: nothing is routed
			sc.byAS = map[asdb.ASN][]int32{}
			return
		}
		sc.byAS = fold.Map(sc.Len(), workers,
			func(lo, hi int) map[asdb.ASN][]int32 {
				part := make(map[asdb.ASN][]int32)
				for i := lo; i < hi; i++ {
					if sc.HasAS[i] {
						part[sc.ASN[i]] = append(part[sc.ASN[i]], int32(i))
					}
				}
				return part
			},
			func(dst, src map[asdb.ASN][]int32) map[asdb.ASN][]int32 {
				// Ascending range order keeps each group's indices sorted.
				//lint:ordered per-key appends are independent; fold merges partials in ascending range order
				for asn, idxs := range src {
					dst[asn] = append(dst[asn], idxs...)
				}
				return dst
			})
	})
	return sc.byAS
}
