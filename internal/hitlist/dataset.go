// Package hitlist builds and compares the three address corpora of the
// paper's Table 1: the passive NTP corpus, an IPv6-Hitlist-style active
// hitlist (seed lists + Yarrp + ZMap6 + target generation + alias
// pre-filtering, after Gasser et al.), and a CAIDA-style routed-/48 Yarrp
// campaign. It also implements the /48-truncated release format the
// paper's ethics section mandates.
package hitlist

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"hitlist6/internal/addr"
)

// Dataset is a named set of IPv6 addresses with set algebra and the
// aggregate statistics Table 1 reports.
//
// Storage is one canonical sorted flat []addr.Addr — 16 bytes per
// address in a single slab instead of a GC-scanned map plus a duplicate
// order slice. Membership is binary search, intersections are linear
// merges of sorted arrays, and iteration follows canonical (ascending)
// address order, which makes every consumer deterministic regardless of
// how the dataset was built.
//
// Writes append; the slab is sort-deduplicated lazily on the first read
// after a write ("seal"). Builders that insert in canonical order
// (sorted serialized streams) keep the slab sorted as they go and never
// pay the sort; FromRecords adopts a corpus's sorted key column whole.
// A sealed dataset is safe for concurrent reads; Add must not race with
// reads.
type Dataset struct {
	Name   string
	addrs  []addr.Addr
	sealed bool // addrs is sorted and deduplicated
}

// NewDataset returns an empty dataset.
func NewDataset(name string) *Dataset {
	return &Dataset{Name: name, sealed: true}
}

// Add inserts an address; duplicates are coalesced at the next seal.
func (d *Dataset) Add(a addr.Addr) {
	if n := len(d.addrs); d.sealed && n > 0 {
		last := d.addrs[n-1]
		if last == a {
			return
		}
		if a.Less(last) {
			d.sealed = false
		}
	}
	d.addrs = append(d.addrs, a)
}

// seal sorts and deduplicates the slab in place. Reads call it before
// touching the array; it is a no-op on an already canonical dataset.
func (d *Dataset) seal() {
	if d.sealed {
		return
	}
	sort.Slice(d.addrs, func(i, j int) bool { return d.addrs[i].Less(d.addrs[j]) })
	out := d.addrs[:0]
	for i, a := range d.addrs {
		if i == 0 || a != out[len(out)-1] {
			out = append(out, a)
		}
	}
	d.addrs = out
	d.sealed = true
}

// Len returns the number of (distinct) addresses.
func (d *Dataset) Len() int {
	d.seal()
	return len(d.addrs)
}

// Each iterates the addresses in canonical (ascending) order; returning
// false stops.
func (d *Dataset) Each(fn func(a addr.Addr) bool) {
	d.seal()
	for _, a := range d.addrs {
		if !fn(a) {
			return
		}
	}
}

// View returns the dataset's backing slab in canonical order — the
// zero-copy accessor the analysis engine's folds scan. The slice is
// owned by the dataset: callers must treat it as read-only and must not
// hold it across a later Add.
func (d *Dataset) View() []addr.Addr {
	d.seal()
	return d.addrs
}

// Addrs materializes the address set in canonical order. The copy is the
// caller's to mutate; hot paths should use View.
func (d *Dataset) Addrs() []addr.Addr {
	d.seal()
	return append([]addr.Addr(nil), d.addrs...)
}

// IntersectionSize counts addresses present in both datasets by a linear
// merge of the two sorted slabs — no hashing, no allocation.
func IntersectionSize(a, b *Dataset) int {
	av, bv := a.View(), b.View()
	n := 0
	for i, j := 0, 0; i < len(av) && j < len(bv); {
		switch {
		case av[i] == bv[j]:
			n++
			i++
			j++
		case av[i].Less(bv[j]):
			i++
		default:
			j++
		}
	}
	return n
}

// EachCommon visits every address present in both datasets, in canonical
// order, by the same linear merge IntersectionSize runs; returning false
// stops. The index arguments are the address's positions in a.View()
// and b.View(), letting sidecar consumers read attribute columns without
// re-deriving them.
func EachCommon(a, b *Dataset, fn func(ai, bi int) bool) {
	av, bv := a.View(), b.View()
	for i, j := 0, 0; i < len(av) && j < len(bv); {
		switch {
		case av[i] == bv[j]:
			if !fn(i, j) {
				return
			}
			i++
			j++
		case av[i].Less(bv[j]):
			i++
		default:
			j++
		}
	}
}

// Stats is one dataset's Table 1 row.
type Stats struct {
	Name     string
	Addrs    int
	ASNs     int
	P48s     int
	AvgPer48 float64
	// CommonAddrs/CommonASNs/CommonP48s are intersections with a
	// reference dataset (the NTP corpus in Table 1), zero when no
	// reference was supplied.
	CommonAddrs int
	CommonASNs  int
	CommonP48s  int
}

// CountP48s returns the number of distinct /48 prefixes: a single linear
// pass, since sorting by address also sorts (and groups) by /48.
func (d *Dataset) CountP48s() int {
	n := 0
	var prev addr.Prefix48
	for i, a := range d.View() {
		if p := a.P48(); i == 0 || p != prev {
			n++
			prev = p
		}
	}
	return n
}

// CommonP48s counts /48 prefixes present in both sorted datasets: a
// linear merge over the (grouped) prefix sequences.
func CommonP48s(a, b *Dataset) int {
	av, bv := a.View(), b.View()
	n := 0
	i, j := 0, 0
	for i < len(av) && j < len(bv) {
		pa, pb := av[i].P48(), bv[j].P48()
		switch {
		case pa == pb:
			n++
			for i < len(av) && av[i].P48() == pa {
				i++
			}
			for j < len(bv) && bv[j].P48() == pb {
				j++
			}
		case pa < pb:
			i++
		default:
			j++
		}
	}
	return n
}

// AliasList is the set of known aliased /64 prefixes a hitlist publishes
// alongside its addresses, used as the pre-filter for active campaigns.
type AliasList struct {
	prefixes map[addr.Prefix64]struct{}
}

// NewAliasList returns an empty alias list.
func NewAliasList() *AliasList {
	return &AliasList{prefixes: make(map[addr.Prefix64]struct{})}
}

// Add records an aliased /64.
func (l *AliasList) Add(p addr.Prefix64) { l.prefixes[p] = struct{}{} }

// Contains reports whether the /64 is known aliased.
func (l *AliasList) Contains(p addr.Prefix64) bool {
	_, ok := l.prefixes[p]
	return ok
}

// Len returns the number of aliased prefixes.
func (l *AliasList) Len() int { return len(l.prefixes) }

// Each iterates the aliased prefixes in ascending prefix order, so
// every consumer — current and future — inherits a deterministic view
// without sorting on its own.
func (l *AliasList) Each(fn func(p addr.Prefix64) bool) {
	for _, p := range slices.Sorted(maps.Keys(l.prefixes)) {
		if !fn(p) {
			return
		}
	}
}

// Release renders the dataset truncated to /48 granularity, one prefix
// per line, sorted — the paper's ethical release format ("we will only be
// releasing our dataset at the /48 level"). The distinct prefixes fall
// out of one linear pass over the sorted slab; only the (much smaller)
// rendered lines are sorted, because the release format orders its lines
// lexicographically rather than numerically.
func Release(d *Dataset) string {
	lines := make([]string, 0, 64)
	var prev addr.Prefix48
	for i, a := range d.View() {
		if p := a.P48(); i == 0 || p != prev {
			lines = append(lines, p.String())
			prev = p
		}
	}
	sort.Strings(lines)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %d active /48 prefixes (addresses withheld for privacy)\n",
		d.Name, len(lines))
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}
