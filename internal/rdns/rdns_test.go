package rdns

import (
	"bytes"
	"slices"
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

// Query answers for the name formed by the first len(nibbles) labels,
// resolved from the root the way an authoritative server would: the
// rcode, and whether the name is a full 32-nibble PTR owner. It counts
// itself in z.Queries, as Walk counts its queries.
func (z *Zone) Query(nibbles []int) (RCode, bool) {
	z.Queries++
	n := z.root
	for _, nib := range nibbles {
		if nib < 0 || nib > 15 {
			return NXDomain, false
		}
		if n.children[nib] == nil {
			return NXDomain, false
		}
		n = n.children[nib]
	}
	return NoError, n.ptr && len(nibbles) == 32
}

// walkFromRoot is the walk as a client of a real server makes it: every
// name is one Query resolved from the root. Walk must return the same
// records and leave z.Queries where this leaves it.
func walkFromRoot(z *Zone, under addr.Prefix, maxQueries uint64) []addr.Addr {
	if under.Bits()%4 != 0 {
		under = addr.MustPrefix(under.Addr(), under.Bits()/4*4)
	}
	start := make([]int, under.Bits()/4)
	for i := range start {
		start[i] = nibbleAt(under.Addr(), i)
	}
	var out []addr.Addr
	budget := func() bool {
		return maxQueries == 0 || z.Queries < maxQueries
	}
	var rec func(nibbles []int)
	rec = func(nibbles []int) {
		if !budget() {
			return
		}
		rcode, isPTR := z.Query(nibbles)
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

// FuzzWalk holds Walk to the root-resolving walk: on an arbitrary zone of
// up to 64 names sharing stems of any length, for 1–3 walks of one zone
// over any prefix (/0–/128, nibble-aligned or not) under budgets 0–500,
// every call must return the same records and leave the same cumulative
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
		got, want := NewZone(), NewZone()
		names := []addr.Addr{stem}
		for n := int(next()) % 65; n > 0; n-- {
			a := stem
			for i := 15 - int(next())%16; i < 16; i++ {
				a[i] = next()
			}
			got.Add(a)
			want.Add(a)
			names = append(names, a)
		}
		for walks := 1 + int(next())%3; walks > 0; walks-- {
			base := names[int(next())%len(names)]
			if i := next(); i != 0 {
				base[i%16] ^= next()
			}
			under := addr.MustPrefix(base, int(next())%129)
			budget := (uint64(next())<<8 | uint64(next())) % 501
			g := Walk(got, under, budget)
			w := walkFromRoot(want, under, budget)
			if !slices.Equal(g, w) {
				t.Fatalf("Walk(%s, %d) = %v, root-resolving walk gives %v", under, budget, g, w)
			}
			if got.Queries != want.Queries {
				t.Fatalf("Walk(%s, %d): %d queries, root-resolving walk %d", under, budget, got.Queries, want.Queries)
			}
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
}

func nibblesOf(a addr.Addr, n int) []int {
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = nibbleAt(a, i)
	}
	return out
}

func TestWalkEnumeratesExactly(t *testing.T) {
	z := NewZone()
	want := []addr.Addr{
		addr.MustParse("2001:db8::1"),
		addr.MustParse("2001:db8::2"),
		addr.MustParse("2001:db8:0:1::1"),
		addr.MustParse("2001:db8:ffff::42"),
	}
	for _, a := range want {
		z.Add(a)
	}
	// A record outside the walked prefix must not appear.
	z.Add(addr.MustParse("2400:cb00::1"))

	got := Walk(z, addr.MustParsePrefix("2001:db8::/32"), 0)
	if len(got) != len(want) {
		t.Fatalf("walked %d records, want %d: %v", len(got), len(want), got)
	}
	sortAddrs(want)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %s want %s", i, got[i], want[i])
		}
	}
}

func TestWalkQueryCostScalesWithNames(t *testing.T) {
	z := NewZone()
	const names = 50
	for i := 0; i < names; i++ {
		z.Add(addr.FromParts(0x20010db8_00000000|uint64(i), uint64(i+1)))
	}
	z.Queries = 0
	got := Walk(z, addr.MustParsePrefix("2001:db8::/32"), 0)
	if len(got) != names {
		t.Fatalf("walked %d", len(got))
	}
	// The walk must be linear-ish in names (each name costs at most
	// 32 levels x 16 siblings), nowhere near brute force.
	maxQ := uint64(names * 32 * 16)
	if z.Queries > maxQ {
		t.Errorf("queries %d exceed linear bound %d", z.Queries, maxQ)
	}
	if z.Queries < names {
		t.Errorf("implausibly few queries: %d", z.Queries)
	}
}

func TestWalkBudget(t *testing.T) {
	z := NewZone()
	for i := 0; i < 100; i++ {
		z.Add(addr.FromParts(0x20010db8_00000000|uint64(i), 1))
	}
	z.Queries = 0
	full := Walk(z, addr.MustParsePrefix("2001:db8::/32"), 0)
	z.Queries = 0
	partial := Walk(z, addr.MustParsePrefix("2001:db8::/32"), 200)
	if len(partial) >= len(full) {
		t.Errorf("budgeted walk should find fewer: %d vs %d", len(partial), len(full))
	}
	if z.Queries > 200+16 {
		t.Errorf("budget overrun: %d", z.Queries)
	}
}

func TestWalkEmptyZone(t *testing.T) {
	z := NewZone()
	if got := Walk(z, addr.MustParsePrefix("::/0"), 0); len(got) != 0 {
		t.Errorf("empty zone walk: %v", got)
	}
}

func TestWalkNonNibbleAlignedPrefix(t *testing.T) {
	z := NewZone()
	a := addr.MustParse("2001:db8::7")
	z.Add(a)
	// /33 rounds down to /32.
	got := Walk(z, addr.MustParsePrefix("2001:db8::/33"), 0)
	if len(got) != 1 || got[0] != a {
		t.Errorf("walk: %v", got)
	}
}

func TestWalkRoundTripProperty(t *testing.T) {
	f := func(lo1, lo2, lo3 uint64) bool {
		z := NewZone()
		in := map[addr.Addr]bool{}
		for _, lo := range []uint64{lo1, lo2, lo3} {
			a := addr.FromParts(0x20010db8_00000000, lo)
			z.Add(a)
			in[a] = true
		}
		got := Walk(z, addr.MustParsePrefix("2001:db8::/64"), 0)
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

func TestBuildZoneFromWorld(t *testing.T) {
	cfg := simnet.DefaultConfig(21, 0.05)
	cfg.Days = 10
	w, err := simnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := w.Origin.Add(24 * time.Hour)
	z := BuildZone(w, at)
	if z.Len() == 0 {
		t.Fatal("empty zone")
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

// Len returns the number of PTR records in the zone.
func (z *Zone) Len() int { return countPTRs(z.root) }

func countPTRs(n *zoneNode) int {
	if n == nil {
		return 0
	}
	c := 0
	if n.ptr {
		c = 1
	}
	for _, ch := range n.children {
		c += countPTRs(ch)
	}
	return c
}

// sortAddrs orders addresses lexicographically.
func sortAddrs(as []addr.Addr) {
	slices.SortFunc(as, func(x, y addr.Addr) int { return bytes.Compare(x[:], y[:]) })
}
