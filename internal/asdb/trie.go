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

// sub returns x - y modulo 2^128.
func (x u128) sub(y u128) u128 {
	lo, borrow := bits.Sub64(x.lo, y.lo, 0)
	hi, _ := bits.Sub64(x.hi, y.hi, borrow)
	return u128{hi, lo}
}

// lpmSeg is the answer for every address from start to start+span. The
// bounds sit beside the answer, so the line a search compares in is the
// line it answers from, and a Memo learns the segment from that line.
type lpmSeg[V any] struct {
	start, span u128
	val         V
	found       bool
}

type lpmRoute[V any] struct {
	p addr.Prefix
	v V
}

// lpmTable is the compiled form of a Trie. segs[i] is segment i, whose
// start is its first address (segs[0] starts at ::). routes are
// sorted by (address, length), which is the trie's pre-order.
//
// The bucket index keys an address by the k bits just below the leading
// bits that every start after :: shares, so routes packed into one corner
// of the space (as allocations are) still spread over the buckets. An
// address below that shared prefix keys 0, one above it 2^k+1, one inside
// it 1 plus its k bits; the key never decreases as the address grows.
// bucket[b] counts the segments keyed below b, so the segment holding an
// address keyed b lies in [bucket[b]-1, bucket[b+1]).
type lpmTable[V any] struct {
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
	s := &tab.segs[tab.find(u128{a.Hi(), a.Lo()})]
	return s.val, s.found
}

// find returns the index of the segment holding x.
func (tab *lpmTable[V]) find(x u128) int {
	b := tab.key(x.hi)
	lo, hi := int(tab.bucket[b]), int(tab.bucket[b+1])
	// Find the first start above x; x is in the segment before it, which
	// exists because segs[0] starts at ::.
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if tab.segs[m].start.lessEq(x) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

// Memo is a Trie's Lookup for callers whose consecutive lookups mostly
// fall in one segment, as a device's sightings do. It keeps the compiled
// table it last searched and the segment it found there: a lookup inside
// that segment of the current table is an atomic load, a subtraction and
// a compare; any other is Lookup's search. An Insert replaces the table,
// so no answer is stale. A Memo is not safe for concurrent use.
type Memo[V any] struct {
	t   *Trie[V]
	tab *lpmTable[V]
	i   int // the segment last found in tab
}

// NewMemo returns a memo over t.
func (t *Trie[V]) NewMemo() *Memo[V] { return &Memo[V]{t: t} }

// Lookup equals the trie's Lookup.
func (m *Memo[V]) Lookup(a addr.Addr) (V, bool) {
	x := u128{a.Hi(), a.Lo()}
	tab := m.t.compiled.Load()
	if tab != nil && tab == m.tab {
		// start <= x <= start+span as one unsigned compare: no branch on
		// which side of the segment a miss falls.
		if s := &tab.segs[m.i]; x.sub(s.start).lessEq(s.span) {
			return s.val, s.found
		}
	} else {
		tab = m.t.table()
		m.tab = tab
	}
	m.i = tab.find(x)
	s := &tab.segs[m.i]
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

	tab.segs = make([]lpmSeg[V], 1, 2*len(routes)+1)
	// open starts a segment; one opened at the previous one's start
	// replaces it. Spans are filled in once every start is known.
	open := func(seg lpmSeg[V]) {
		if n := len(tab.segs) - 1; tab.segs[n].start == seg.start {
			tab.segs[n] = seg
			return
		}
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
		seg := lpmSeg[V]{start: next}
		if n := len(stack); n > 0 {
			seg.val, seg.found = stack[n-1].v, true
		}
		open(seg)
	}
	for _, r := range tab.routes {
		a, n := r.p.Addr(), r.p.Bits()
		first := u128{a.Hi(), a.Lo()}
		for len(stack) > 0 && !first.lessEq(stack[len(stack)-1].last) {
			pop()
		}
		open(lpmSeg[V]{start: first, val: r.v, found: true})
		last := u128{first.hi | ^uint64(0)>>min(n, 64), first.lo | ^uint64(0)>>max(n-64, 0)}
		stack = append(stack, frame{last, r.v})
	}
	for len(stack) > 0 {
		pop()
	}

	for i := range tab.segs {
		next := u128{} // 2^128 after the last segment, mod 2^128
		if i+1 < len(tab.segs) {
			next = tab.segs[i+1].start
		}
		tab.segs[i].span = next.sub(tab.segs[i].start).sub(u128{0, 1})
	}

	var common uint
	if n := len(tab.segs); n > 1 {
		first, last := tab.segs[1].start.hi, tab.segs[n-1].start.hi
		common = uint(bits.LeadingZeros64(first ^ last))
		tab.base = first &^ (^uint64(0) >> common)
	}
	k := min(uint(bits.Len(uint(len(tab.segs)-1))), 16, 64-common)
	tab.shift, tab.width = 64-common-k, 1<<k
	tab.bucket = make([]uint32, 1<<k+3)
	for _, s := range tab.segs {
		tab.bucket[tab.key(s.start.hi)+1]++
	}
	for b := 1; b < len(tab.bucket); b++ {
		tab.bucket[b] += tab.bucket[b-1]
	}
	return tab
}
