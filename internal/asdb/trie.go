// Package asdb provides the Autonomous System database the paper's
// analyses depend on: prefix-to-ASN longest-prefix matching, AS metadata
// (name, country, ASdb-style type classification), and per-AS aggregation
// helpers.
//
// Longest-prefix matching reads a flat table, not a pointer tree: the
// routes cut the address space into segments of constant answer, and a
// lookup is one bucket read plus a short binary search over the segment
// starts. The table is compiled on the first lookup after an insert, so a
// table filled and then read compiles once.
package asdb

import (
	"bytes"
	"cmp"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"hitlist6/internal/addr"
)

// Trie is a longest-prefix-match table from IPv6 prefixes to values. The
// zero value is not usable; create with NewTrie.
//
// Routes live in a map; Lookup and Walk read an immutable table compiled
// from it on first use after an Insert. Lookup, LookupPrefix, Walk and
// Len may run concurrently, including the first Lookup, which compiles.
// Insert must not run concurrently with any other method.
type Trie[V any] struct {
	routes   map[addr.Prefix]V
	compiled atomic.Pointer[lpmTable[V]]
	mu       sync.Mutex // serialises compiles
}

// u128 is an address as two big-endian halves.
type u128 struct{ hi, lo uint64 }

func (x u128) lessEq(y u128) bool { return x.hi < y.hi || (x.hi == y.hi && x.lo <= y.lo) }

// lpmSeg is the answer for every address from its segment's start up to
// the next segment's.
type lpmSeg[V any] struct {
	val   V
	found bool
}

type lpmRoute[V any] struct {
	p addr.Prefix
	v V
}

// lpmTable is the compiled form of a Trie. starts[i] is the first address
// of segment i (starts[0] is ::) and segs[i] its answer. routes are
// sorted by (address, length), which is the trie's pre-order.
//
// The bucket index keys an address by the k bits just below the leading
// bits that every start after :: shares, so routes packed into one corner
// of the space (as allocations are) still spread over the buckets. An
// address below that shared prefix keys 0, one above it 2^k+1, one inside
// it 1 plus its k bits; the key never decreases as the address grows.
// bucket[b] counts the starts keyed below b, so the segment holding an
// address keyed b lies in [bucket[b]-1, bucket[b+1]).
type lpmTable[V any] struct {
	starts []u128
	segs   []lpmSeg[V]
	bucket []uint32
	base   uint64 // the shared prefix, low bits zero
	shift  uint   // 64 - shared prefix length - k
	width  uint64 // 2^k
	routes []lpmRoute[V]
}

func (tab *lpmTable[V]) key(hi uint64) int {
	if hi < tab.base {
		return 0
	}
	return 1 + int(min((hi-tab.base)>>tab.shift, tab.width))
}

// NewTrie returns an empty routing trie.
func NewTrie[V any]() *Trie[V] {
	return &Trie[V]{routes: make(map[addr.Prefix]V)}
}

// Len returns the number of inserted prefixes.
func (t *Trie[V]) Len() int { return len(t.routes) }

// Insert adds or replaces the value for a prefix.
func (t *Trie[V]) Insert(p addr.Prefix, v V) {
	t.routes[p] = v
	if t.compiled.Load() != nil {
		t.compiled.Store(nil)
	}
}

// Lookup returns the value of the longest prefix containing a, and whether
// any prefix matched.
func (t *Trie[V]) Lookup(a addr.Addr) (V, bool) {
	tab := t.table()
	x := u128{a.Hi(), a.Lo()}
	b := tab.key(x.hi)
	lo, hi := int(tab.bucket[b]), int(tab.bucket[b+1])
	// Find the first start above x; x is in the segment before it, which
	// exists because starts[0] is ::.
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if tab.starts[m].lessEq(x) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	s := &tab.segs[lo-1]
	return s.val, s.found
}

// LookupPrefix returns the value stored for exactly p, if present.
func (t *Trie[V]) LookupPrefix(p addr.Prefix) (V, bool) {
	v, ok := t.routes[p]
	return v, ok
}

// Walk visits every stored (prefix, value) pair in lexicographic bit
// order: a prefix before the prefixes inside it, lower addresses first.
// The callback returning false stops the walk.
func (t *Trie[V]) Walk(fn func(p addr.Prefix, v V) bool) {
	for _, r := range t.table().routes {
		if !fn(r.p, r.v) {
			return
		}
	}
}

// table returns the compiled table, compiling it if an Insert cleared it.
func (t *Trie[V]) table() *lpmTable[V] {
	if tab := t.compiled.Load(); tab != nil {
		return tab
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tab := t.compiled.Load()
	if tab == nil {
		tab = compile(t.routes)
		t.compiled.Store(tab)
	}
	return tab
}

// compile sorts the routes into pre-order and sweeps them with a stack of
// the enclosing prefixes. Prefixes nest or are disjoint, so a route opens
// a segment at its first address, and closing it opens one after its
// last address, answered by the route beneath it on the stack.
func compile[V any](routes map[addr.Prefix]V) *lpmTable[V] {
	tab := &lpmTable[V]{routes: make([]lpmRoute[V], 0, len(routes))}
	for p, v := range routes {
		tab.routes = append(tab.routes, lpmRoute[V]{p, v})
	}
	slices.SortFunc(tab.routes, func(x, y lpmRoute[V]) int {
		xa, ya := x.p.Addr(), y.p.Addr()
		return cmp.Or(bytes.Compare(xa[:], ya[:]), cmp.Compare(x.p.Bits(), y.p.Bits()))
	})

	tab.starts = make([]u128, 1, 2*len(routes)+1)
	tab.segs = make([]lpmSeg[V], 1, 2*len(routes)+1)
	// open starts a segment; one opened at the previous one's start
	// replaces it.
	open := func(s u128, seg lpmSeg[V]) {
		if n := len(tab.starts) - 1; tab.starts[n] == s {
			tab.segs[n] = seg
			return
		}
		tab.starts = append(tab.starts, s)
		tab.segs = append(tab.segs, seg)
	}
	type frame struct {
		last u128
		v    V
	}
	var stack []frame
	pop := func() {
		last := stack[len(stack)-1].last
		stack = stack[:len(stack)-1]
		if last == (u128{^uint64(0), ^uint64(0)}) {
			return // the route ends at the top of the address space
		}
		next := u128{last.hi, last.lo + 1}
		if next.lo == 0 {
			next.hi++
		}
		var seg lpmSeg[V]
		if n := len(stack); n > 0 {
			seg = lpmSeg[V]{stack[n-1].v, true}
		}
		open(next, seg)
	}
	for _, r := range tab.routes {
		a, n := r.p.Addr(), r.p.Bits()
		first := u128{a.Hi(), a.Lo()}
		for len(stack) > 0 && !first.lessEq(stack[len(stack)-1].last) {
			pop()
		}
		open(first, lpmSeg[V]{r.v, true})
		last := u128{first.hi | ^uint64(0)>>min(n, 64), first.lo | ^uint64(0)>>max(n-64, 0)}
		stack = append(stack, frame{last, r.v})
	}
	for len(stack) > 0 {
		pop()
	}

	var common uint
	if n := len(tab.starts); n > 1 {
		first, last := tab.starts[1].hi, tab.starts[n-1].hi
		common = uint(bits.LeadingZeros64(first ^ last))
		tab.base = first &^ (^uint64(0) >> common)
	}
	k := min(uint(bits.Len(uint(len(tab.starts)-1))), 16, 64-common)
	tab.shift, tab.width = 64-common-k, 1<<k
	tab.bucket = make([]uint32, 1<<k+3)
	for _, s := range tab.starts {
		tab.bucket[tab.key(s.hi)+1]++
	}
	for b := 1; b < len(tab.bucket); b++ {
		tab.bucket[b] += tab.bucket[b-1]
	}
	return tab
}
