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
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/simnet"
)

// Zone is a nibble-tree of PTR records, queried the way an
// authoritative ip6.arpa server would answer.
type Zone struct {
	root *zoneNode
	// Queries counts lookups served, for cost accounting.
	Queries uint64
}

type zoneNode struct {
	children [16]*zoneNode
	ptr      bool // a PTR record terminates here (depth 32)
}

// NewZone returns an empty zone.
func NewZone() *Zone { return &Zone{root: &zoneNode{}} }

// Add inserts a PTR record for an address.
func (z *Zone) Add(a addr.Addr) {
	n := z.root
	for i := 0; i < 32; i++ {
		nib := nibbleAt(a, i)
		if n.children[nib] == nil {
			n.children[nib] = &zoneNode{}
		}
		n = n.children[nib]
	}
	n.ptr = true
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
// across walks of one zone, and maxQueries bounds that count. The walk
// carries the node of the name it steps from, so a query is one child
// read, not a resolution from the root.
func Walk(z *Zone, under addr.Prefix, maxQueries uint64) []addr.Addr {
	budget := func() bool {
		return maxQueries == 0 || z.Queries < maxQueries
	}
	if !budget() {
		return nil
	}
	depth := under.Bits() / 4
	name := addr.Mask(under.Addr(), depth*4)
	n := z.root
	z.Queries++
	for i := 0; i < depth && n != nil; i++ {
		n = n.children[nibbleAt(name, i)]
	}
	if n == nil {
		return nil
	}
	var out []addr.Addr
	// rec walks below n, the node of name's first depth nibbles.
	var rec func(n *zoneNode, depth int, name addr.Addr)
	rec = func(n *zoneNode, depth int, name addr.Addr) {
		if depth == 32 {
			if n.ptr {
				out = append(out, name)
			}
			return
		}
		for nib := 0; nib < 16 && budget(); nib++ {
			z.Queries++
			if c := n.children[nib]; c != nil {
				child := name
				child[depth/2] |= byte(nib) << (4 * (1 - depth%2)) // nibble depth, high first
				rec(c, depth+1, child)
			}
		}
	}
	rec(n, depth, name)
	return out
}

// BuildZone populates a zone from the world at a point in time: servers
// nearly always carry PTR records, routers usually do (operators name
// infrastructure), CPE rarely, clients never. The per-device choice is
// deterministic in the device seed via the world's public-seed sampling
// when available; here we use the structural classes directly.
func BuildZone(w *simnet.World, at time.Time) *Zone {
	z := NewZone()
	for _, r := range w.Routers() {
		z.Add(r)
	}
	for _, d := range w.Devices() {
		var keep bool
		switch d.Kind {
		case simnet.KindServer:
			keep = true
		case simnet.KindCPE:
			// Dynamic-DNS households: reuse the public-seed notion.
			keep = hasPTRBit(d)
		}
		if keep {
			z.Add(d.AddressAt(at))
		}
	}
	return z
}

// hasPTRBit samples a stable per-device coin for CPE PTR presence.
func hasPTRBit(d *simnet.Device) bool {
	// One in four CPE households runs dynamic DNS.
	m, ok := d.MAC()
	if ok {
		return (uint32(m[5])+uint32(m[4]))%4 == 0
	}
	return d.QueryRate() != 0 && int(d.QueryRate()*100)%4 == 0
}
