// Package rdns implements reverse-DNS-based IPv6 address discovery: the
// ip6.arpa NXDOMAIN tree-walking technique (Fiebig et al., PAM'17;
// Borgolte et al., S&P'18) the paper's related work cites as an active
// discovery source for hitlists.
//
// The ip6.arpa zone is a 32-level nibble tree. RFC 8020-compliant servers
// answer NXDOMAIN for an empty subtree and NOERROR for an empty
// non-terminal, so a walker can enumerate every PTR record while pruning
// all dead branches — discovering each name with O(32 × 16) queries
// instead of 2^128 probes.
//
// Zone is the authoritative-server stand-in (built from the simulated
// world's devices that plausibly have PTR records), and Walk is the
// enumerator.
package rdns

import (
	"bytes"
	"slices"
	"sort"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/simnet"
)

// Zone is the PTR records of an ip6.arpa zone, queried the way an
// authoritative server would answer. It is one flat slice of owner
// addresses; sorted, it is the nibble tree read as ranges: the names
// below an ip6.arpa name are the contiguous run of addresses sharing
// its nibbles, and the name exists exactly when that run is non-empty.
type Zone struct {
	addrs []addr.Addr
	dirty bool // addrs may be unsorted or hold repeats
	// Queries counts lookups served, for cost accounting.
	Queries uint64
}

// seal sorts and deduplicates the records after an Add, in place.
func (z *Zone) seal() {
	if !z.dirty {
		return
	}
	slices.SortFunc(z.addrs, func(x, y addr.Addr) int { return bytes.Compare(x[:], y[:]) })
	z.addrs = slices.Compact(z.addrs)
	z.dirty = false
}

// nibbleAt returns the i-th nibble of the address, most significant
// first (the label order is reversed in actual ip6.arpa names; the walk
// is isomorphic either way).
func nibbleAt(a addr.Addr, i int) int {
	b := a[i/2]
	if i%2 == 0 {
		return int(b >> 4)
	}
	return int(b & 0xf)
}

// Walk enumerates every PTR record under the given prefix by NXDOMAIN
// tree walking. maxQueries bounds the cost (0 = unlimited); the walk
// stops early when exhausted. Results are in nibble-lexicographic order.
//
// A query names the delegation (rounded down to a nibble boundary), then
// each child of every name that answered NOERROR; z.Queries counts them
// across walks of one zone, and maxQueries bounds that count. The root
// always answers. The walk carries the record range of the name it
// steps from: children come in nibble order, so child k's range starts
// where child k−1's ended, at most one binary search finds its end, and
// a run of empty children is charged in one step.
func Walk(z *Zone, under addr.Prefix, maxQueries uint64) []addr.Addr {
	// ask charges k queries, one per name, while the budget lasts, and
	// reports whether all k were asked.
	ask := func(k uint64) bool {
		n := k
		if maxQueries != 0 {
			n = min(k, maxQueries-min(z.Queries, maxQueries))
		}
		z.Queries += n
		return n == k
	}
	if !ask(1) {
		return nil
	}
	z.seal()
	depth := under.Bits() / 4
	name := addr.Mask(under.Addr(), depth*4)
	rs := z.addrs
	lo := sort.Search(len(rs), func(i int) bool { return !rs[i].Less(name) })
	hi := lo + sort.Search(len(rs)-lo, func(i int) bool { return addr.Mask(rs[lo+i], depth*4) != name })
	if lo == hi && depth > 0 {
		return nil
	}
	// Records are unique, so a depth-32 name is one record, and the
	// records found are the run from lo up to the last one reached.
	found := lo
	var rec func(lo, hi, depth int)
	rec = func(lo, hi, depth int) {
		if depth == 32 {
			found = hi
			return
		}
		nib := 0
		for lo < hi {
			// rs[lo] is the least record not yet visited: children
			// nib..c−1 are empty, child c holds it and ends at hi if
			// the greatest record is under c too.
			c := nibbleAt(rs[lo], depth)
			if !ask(uint64(c-nib) + 1) {
				return
			}
			end := hi
			if nibbleAt(rs[hi-1], depth) != c {
				end = lo + sort.Search(hi-lo, func(i int) bool { return nibbleAt(rs[lo+i], depth) > c })
			}
			rec(lo, end, depth+1)
			lo, nib = end, c+1
		}
		ask(uint64(16 - nib))
	}
	rec(lo, hi, depth)
	if found == lo {
		return nil
	}
	return slices.Clone(rs[lo:found])
}

// BuildZone populates a zone from the world at a point in time: servers
// nearly always carry PTR records, routers usually do (operators name
// infrastructure), CPE rarely, clients never. The per-device choice is
// deterministic in the device seed via the world's public-seed sampling
// when available; here we use the structural classes directly. The
// zone's slice is sized once, for every record.
func BuildZone(w *simnet.World, at time.Time) *Zone {
	routers := w.Routers()
	n := len(routers)
	for _, d := range w.Devices() {
		if hasPTR(d) {
			n++
		}
	}
	z := &Zone{addrs: make([]addr.Addr, 0, n), dirty: true}
	z.addrs = append(z.addrs, routers...)
	for _, d := range w.Devices() {
		if hasPTR(d) {
			z.addrs = append(z.addrs, d.AddressAt(at))
		}
	}
	return z
}

// hasPTR reports whether a device carries a PTR record: every server,
// and the CPE of dynamic-DNS households, one in four by a stable
// per-device coin.
func hasPTR(d *simnet.Device) bool {
	switch d.Kind {
	case simnet.KindServer:
		return true
	case simnet.KindCPE:
		if m, ok := d.MAC(); ok {
			return (uint32(m[5])+uint32(m[4]))%4 == 0
		}
		return d.QueryRate() != 0 && int(d.QueryRate()*100)%4 == 0
	}
	return false
}
