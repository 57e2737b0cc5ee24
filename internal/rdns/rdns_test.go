package rdns

import (
	"bytes"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/simnet"
)

// RCode is the subset of DNS response codes a query distinguishes.
type RCode uint8

const (
	// NXDomain: nothing exists at or below this name (RFC 8020).
	NXDomain RCode = iota
	// NoError: the name exists (an empty non-terminal or a PTR owner).
	NoError
)

// trie is the zone as a pointer nibble tree, one node per name: the
// oracle the flat zone is held to.
type trie struct {
	root trieNode
	// Queries counts lookups served, as Zone.Queries does.
	Queries uint64
}

type trieNode struct {
	children [16]*trieNode
	ptr      bool // a PTR record terminates here (depth 32)
}

func (tr *trie) Add(a addr.Addr) {
	n := &tr.root
	for i := 0; i < 32; i++ {
		nib := nibbleAt(a, i)
		if n.children[nib] == nil {
			n.children[nib] = &trieNode{}
		}
		n = n.children[nib]
	}
	n.ptr = true
}

// Query answers for the name formed by the first len(nibbles) labels,
// resolved from the root the way an authoritative server would: the
// rcode, and whether the name is a full 32-nibble PTR owner. It counts
// itself in tr.Queries, as Walk counts its queries.
func (tr *trie) Query(nibbles []int) (RCode, bool) {
	tr.Queries++
	n := &tr.root
	for _, nib := range nibbles {
		if nib < 0 || nib > 15 || n.children[nib] == nil {
			return NXDomain, false
		}
		n = n.children[nib]
	}
	return NoError, n.ptr && len(nibbles) == 32
}

// Query is trie.Query answered from the flat zone: a name exists when
// the root is asked for, or when some record starts with its nibbles.
func (z *Zone) Query(nibbles []int) (RCode, bool) {
	z.Queries++
	z.seal()
	if len(nibbles) > 32 {
		return NXDomain, false
	}
	for _, nib := range nibbles {
		if nib < 0 || nib > 15 {
			return NXDomain, false
		}
	}
	name := addrFromNibbles(nibbles)
	i := sort.Search(len(z.addrs), func(i int) bool { return !z.addrs[i].Less(name) })
	if len(nibbles) > 0 && (i == len(z.addrs) || addr.Mask(z.addrs[i], 4*len(nibbles)) != name) {
		return NXDomain, false
	}
	return NoError, len(nibbles) == 32
}

// Len returns the number of PTR records in the zone.
func (z *Zone) Len() int {
	z.seal()
	return len(z.addrs)
}

// walkFromRoot is the walk as a client of a real server makes it, over
// the trie: every name is one Query resolved from the root. Walk must
// return the same records and leave z.Queries where this leaves
// tr.Queries.
func walkFromRoot(tr *trie, under addr.Prefix, maxQueries uint64) []addr.Addr {
	if under.Bits()%4 != 0 {
		under = addr.MustPrefix(under.Addr(), under.Bits()/4*4)
	}
	start := make([]int, under.Bits()/4)
	for i := range start {
		start[i] = nibbleAt(under.Addr(), i)
	}
	var out []addr.Addr
	budget := func() bool {
		return maxQueries == 0 || tr.Queries < maxQueries
	}
	var rec func(nibbles []int)
	rec = func(nibbles []int) {
		if !budget() {
			return
		}
		rcode, isPTR := tr.Query(nibbles)
		if rcode == NXDomain {
			return
		}
		if len(nibbles) == 32 {
			if isPTR {
				out = append(out, addrFromNibbles(nibbles))
			}
			return
		}
		for nib := 0; nib < 16; nib++ {
			rec(append(nibbles, nib))
			if !budget() {
				return
			}
		}
	}
	rec(start)
	return out
}

// zonePair holds one set of records both as the zone and as the trie.
type zonePair struct {
	z  *Zone
	tr *trie
}

func newZonePair() *zonePair { return &zonePair{NewZone(), &trie{}} }

func (p *zonePair) Add(a addr.Addr) {
	p.z.Add(a)
	p.tr.Add(a)
}

// walk runs Walk and the trie's root-resolving walk side by side and
// fails unless both return the same records in the same order and
// leave the same cumulative query count.
func (p *zonePair) walk(t testing.TB, under addr.Prefix, budget uint64) []addr.Addr {
	t.Helper()
	g := Walk(p.z, under, budget)
	w := walkFromRoot(p.tr, under, budget)
	if !slices.Equal(g, w) {
		t.Fatalf("Walk(%s, %d) = %v, root-resolving walk gives %v", under, budget, g, w)
	}
	if p.z.Queries != p.tr.Queries {
		t.Fatalf("Walk(%s, %d): %d queries, root-resolving walk %d", under, budget, p.z.Queries, p.tr.Queries)
	}
	return g
}

func addrFromNibbles(nibbles []int) addr.Addr {
	var a addr.Addr
	for i, nib := range nibbles {
		if i%2 == 0 {
			a[i/2] |= byte(nib) << 4
		} else {
			a[i/2] |= byte(nib)
		}
	}
	return a
}

// FuzzWalk holds Walk to the trie's root-resolving walk: on an
// arbitrary zone of up to 64 names sharing stems of any length, for 1–3
// walks of one zone over any prefix (/0–/128, nibble-aligned or not)
// under budgets 0–500, with a name added before a walk now and then (so
// a walk re-sorts a zone already walked), every call must return the
// same records in the same order and leave the same cumulative
// z.Queries.
func FuzzWalk(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
		2, 7, 9, 15, 4, 1, 2, 3, 4, 0, 2, 0, 32, 0, 0, 0, 0, 1, 64, 1, 0, 0, 0, 200})
	f.Add([]byte{64, 0xfe, 0x80, 0, 0, 0, 0, 0, 0, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0,
		3, 0x11, 0x22, 0x33, 8, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x00, 0x11, 2,
		1, 33, 2, 0, 0, 255, 2, 0, 127, 1, 1, 1, 0, 0, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		var stem addr.Addr
		for i := range stem {
			stem[i] = next()
		}
		p := newZonePair()
		names := []addr.Addr{stem}
		add := func() {
			a := stem
			for i := 15 - int(next())%16; i < 16; i++ {
				a[i] = next()
			}
			p.Add(a)
			names = append(names, a)
		}
		for n := int(next()) % 65; n > 0; n-- {
			add()
		}
		for walks := 1 + int(next())%3; walks > 0; walks-- {
			base := names[int(next())%len(names)]
			if i := next(); i != 0 {
				base[i%16] ^= next()
			}
			under := addr.MustPrefix(base, int(next())%129)
			budget := (uint64(next())<<8 | uint64(next())) % 501
			if under.Bits()%7 == 3 {
				add()
			}
			p.walk(t, under, budget)
		}
	})
}

func TestZoneAddQuery(t *testing.T) {
	z := NewZone()
	a := addr.MustParse("2001:db8::1")
	z.Add(a)
	z.Add(a) // idempotent
	if z.Len() != 1 {
		t.Fatalf("Len: %d", z.Len())
	}
	// Full name resolves with a PTR.
	full := nibblesOf(a, 32)
	rcode, ptr := z.Query(full)
	if rcode != NoError || !ptr {
		t.Errorf("full query: %v %v", rcode, ptr)
	}
	// Any ancestor is an empty non-terminal (NoError, no PTR).
	rcode, ptr = z.Query(full[:8])
	if rcode != NoError || ptr {
		t.Errorf("ancestor query: %v %v", rcode, ptr)
	}
	// Sibling subtree is NXDOMAIN.
	sib := append([]int(nil), full[:8]...)
	sib[7] ^= 0x1
	if rcode, _ := z.Query(sib); rcode != NXDomain {
		t.Errorf("sibling query: %v", rcode)
	}
	// Out-of-range label.
	if rcode, _ := z.Query([]int{99}); rcode != NXDomain {
		t.Errorf("bad label: %v", rcode)
	}
	// The root always answers, and the trie agrees on every name.
	var tr trie
	tr.Add(a)
	for _, q := range [][]int{nil, full, full[:8], sib, {99}, append(full, 0)} {
		zr, zp := z.Query(q)
		if tc, tp := tr.Query(q); zr != tc || zp != tp {
			t.Errorf("query %v: zone %v %v, trie %v %v", q, zr, zp, tc, tp)
		}
	}
	if rcode, _ := NewZone().Query(nil); rcode != NoError {
		t.Errorf("empty zone root: %v", rcode)
	}
}

func TestWalkEnumeratesExactly(t *testing.T) {
	p := newZonePair()
	want := []addr.Addr{
		addr.MustParse("2001:db8::1"),
		addr.MustParse("2001:db8::2"),
		addr.MustParse("2001:db8:0:1::1"),
		addr.MustParse("2001:db8:ffff::42"),
	}
	for _, a := range want {
		p.Add(a)
	}
	// A record outside the walked prefix must not appear.
	p.Add(addr.MustParse("2400:cb00::1"))

	got := p.walk(t, addr.MustParsePrefix("2001:db8::/32"), 0)
	if len(got) != len(want) {
		t.Fatalf("walked %d records, want %d: %v", len(got), len(want), got)
	}
	slices.SortFunc(want, func(x, y addr.Addr) int { return bytes.Compare(x[:], y[:]) })
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %s want %s", i, got[i], want[i])
		}
	}
}

func TestWalkQueryCostScalesWithNames(t *testing.T) {
	p := newZonePair()
	const names = 50
	for i := 0; i < names; i++ {
		p.Add(addr.FromParts(0x20010db8_00000000|uint64(i), uint64(i+1)))
	}
	got := p.walk(t, addr.MustParsePrefix("2001:db8::/32"), 0)
	if len(got) != names {
		t.Fatalf("walked %d", len(got))
	}
	// The walk must be linear-ish in names (each name costs at most
	// 32 levels x 16 siblings), nowhere near brute force.
	maxQ := uint64(names * 32 * 16)
	if p.z.Queries > maxQ {
		t.Errorf("queries %d exceed linear bound %d", p.z.Queries, maxQ)
	}
	if p.z.Queries < names {
		t.Errorf("implausibly few queries: %d", p.z.Queries)
	}
}

func TestWalkBudget(t *testing.T) {
	p := newZonePair()
	for i := 0; i < 100; i++ {
		p.Add(addr.FromParts(0x20010db8_00000000|uint64(i), 1))
	}
	under := addr.MustParsePrefix("2001:db8::/32")
	full := p.walk(t, under, 0)
	p.z.Queries, p.tr.Queries = 0, 0
	partial := p.walk(t, under, 200)
	if len(partial) >= len(full) {
		t.Errorf("budgeted walk should find fewer: %d vs %d", len(partial), len(full))
	}
	if p.z.Queries > 200+16 {
		t.Errorf("budget overrun: %d", p.z.Queries)
	}
	// A spent budget answers nothing and asks nothing.
	if again := p.walk(t, under, 200); len(again) != 0 {
		t.Errorf("walk past the budget found %d", len(again))
	}
}

func TestWalkEmptyZone(t *testing.T) {
	p := newZonePair()
	if got := p.walk(t, addr.MustParsePrefix("::/0"), 0); len(got) != 0 {
		t.Errorf("empty zone walk: %v", got)
	}
	// The root answered and its 16 children were asked.
	if p.z.Queries != 17 {
		t.Errorf("empty zone walk: %d queries, want 17", p.z.Queries)
	}
}

func TestWalkNonNibbleAlignedPrefix(t *testing.T) {
	p := newZonePair()
	a := addr.MustParse("2001:db8::7")
	p.Add(a)
	// /33 rounds down to /32.
	got := p.walk(t, addr.MustParsePrefix("2001:db8::/33"), 0)
	if len(got) != 1 || got[0] != a {
		t.Errorf("walk: %v", got)
	}
}

func TestWalkRoundTripProperty(t *testing.T) {
	f := func(lo1, lo2, lo3 uint64) bool {
		p := newZonePair()
		in := map[addr.Addr]bool{}
		for _, lo := range []uint64{lo1, lo2, lo3} {
			a := addr.FromParts(0x20010db8_00000000, lo)
			p.Add(a)
			in[a] = true
		}
		got := p.walk(t, addr.MustParsePrefix("2001:db8::/64"), 0)
		if len(got) != len(in) {
			return false
		}
		for _, a := range got {
			if !in[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// testWorld builds a small world at the given scale for the zone tests.
func testWorld(t testing.TB, scale float64) *simnet.World {
	t.Helper()
	cfg := simnet.DefaultConfig(21, scale)
	cfg.Days = 10
	w, err := simnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// worldPair is BuildZone's records at a time, as a zone pair built by
// hand: every router, then each device hasPTR keeps.
func worldPair(w *simnet.World, at time.Time) *zonePair {
	p := newZonePair()
	for _, r := range w.Routers() {
		p.Add(r)
	}
	for _, d := range w.Devices() {
		if hasPTR(d) {
			p.Add(d.AddressAt(at))
		}
	}
	return p
}

func TestBuildZoneFromWorld(t *testing.T) {
	w := testWorld(t, 0.05)
	at := w.Origin.Add(24 * time.Hour)
	z := BuildZone(w, at)
	if z.Len() == 0 {
		t.Fatal("empty zone")
	}
	if want := worldPair(w, at).z; want.Len() != z.Len() || !slices.Equal(z.addrs, want.addrs) {
		t.Fatalf("BuildZone holds %d records, the hand-built zone %d", z.Len(), want.Len())
	}
	// All routers must be enumerable.
	for _, r := range w.Routers()[:5] {
		full := nibblesOf(r, 32)
		if rcode, ptr := z.Query(full); rcode != NoError || !ptr {
			t.Errorf("router %s missing PTR", r)
		}
	}
	// A walk over one AS's routed prefix discovers only in-prefix names.
	routed := w.ASDB.Get(w.ASDB.ASNs()[0]).Prefixes[0]
	found := Walk(z, routed, 0)
	for _, a := range found {
		if !routed.Contains(a) {
			t.Errorf("walk escaped prefix: %s", a)
		}
	}
}

// TestWorldWalksMatchTrie walks every routed prefix of a world's zone,
// as one active round does, against the trie: without a budget, and
// under budgets that run out part way through the round.
func TestWorldWalksMatchTrie(t *testing.T) {
	w := testWorld(t, 0.05)
	at := w.Origin.Add(48 * time.Hour)
	prefixes := w.ASDB.RoutedPrefixes()
	p := worldPair(w, at)
	found := 0
	for _, rp := range prefixes {
		found += len(p.walk(t, rp.Prefix, 0))
	}
	if found == 0 {
		t.Fatal("no record found")
	}
	total := p.z.Queries
	for _, budget := range []uint64{total / 2, total / 7, 1} {
		p.z.Queries, p.tr.Queries = 0, 0
		for _, rp := range prefixes {
			p.walk(t, rp.Prefix, budget)
		}
	}
}

// TestBuildZoneWalkAllocs gates one active round's rDNS memory: building
// the zone and walking every routed prefix allocates the records once,
// plus the walks' results, within 48 B per record and 64 KiB. The world
// is large enough (≈3.9 k records) that the per-record term dominates.
func TestBuildZoneWalkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	w := testWorld(t, 2)
	at := w.Origin.Add(24 * time.Hour)
	prefixes := w.ASDB.RoutedPrefixes()
	var records, found int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	z := BuildZone(w, at)
	for _, rp := range prefixes {
		found += len(Walk(z, rp.Prefix, 0))
	}
	runtime.ReadMemStats(&after)
	records = z.Len()
	if found == 0 {
		t.Fatal("no record found")
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(48*records+64<<10)
	t.Logf("BuildZone plus %d walks: %d B for %d records", len(prefixes), got, records)
	if got > limit {
		t.Errorf("BuildZone plus %d walks allocated %d B for %d records; limit %d", len(prefixes), got, records, limit)
	}
}

func nibblesOf(a addr.Addr, n int) []int {
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = nibbleAt(a, i)
	}
	return out
}
