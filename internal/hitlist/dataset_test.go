package hitlist

import (
	"math/rand"
	"sort"
	"testing"

	"hitlist6/internal/addr"
)

// mapIntersection is the pre-engine baseline: hash-probe every element
// of the smaller set against the larger. The sorted-merge implementation
// must agree on every overlap shape.
func mapIntersection(a, b *Dataset) int {
	set := make(map[addr.Addr]struct{}, b.Len())
	b.Each(func(x addr.Addr) bool {
		set[x] = struct{}{}
		return true
	})
	n := 0
	a.Each(func(x addr.Addr) bool {
		if _, ok := set[x]; ok {
			n++
		}
		return true
	})
	return n
}

func randAddrs(rng *rand.Rand, n int) []addr.Addr {
	out := make([]addr.Addr, n)
	for i := range out {
		// Small hi-space so overlaps and shared /48s actually happen.
		out[i] = addr.FromParts(0x20010db8_00000000|uint64(rng.Intn(64))<<16, uint64(rng.Intn(1024)))
	}
	return out
}

func fromAddrs(name string, as []addr.Addr) *Dataset {
	d := NewDataset(name)
	d.AddAll(as)
	return d
}

// TestIntersectionAdversarial drives the sorted-merge intersection
// through the overlap shapes that break merge walks: empty sides,
// identical sets, strict subsets, disjoint ranges, interleaved ranges
// and random multisets with duplicate insertions.
func TestIntersectionAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mk := func(n int) *Dataset { return fromAddrs("d", randAddrs(rng, n)) }

	empty := NewDataset("empty")
	full := mk(500)
	cases := []struct {
		name string
		a, b *Dataset
	}{
		{"empty-empty", empty, NewDataset("e2")},
		{"empty-full", empty, full},
		{"full-empty", full, empty},
		{"identical", full, fromAddrs("same", full.Addrs())},
		{"subset", full, fromAddrs("sub", full.Addrs()[:100])},
		{"superset", fromAddrs("sub", full.Addrs()[200:]), full},
	}
	// Disjoint and interleaved ranges.
	var lowHalf, highHalf, even, odd []addr.Addr
	for i := 0; i < 400; i++ {
		a := addr.FromParts(0x20010db8_00000000, uint64(i))
		if i < 200 {
			lowHalf = append(lowHalf, a)
		} else {
			highHalf = append(highHalf, a)
		}
		if i%2 == 0 {
			even = append(even, a)
		} else {
			odd = append(odd, a)
		}
	}
	cases = append(cases,
		struct {
			name string
			a, b *Dataset
		}{"disjoint-ranges", fromAddrs("lo", lowHalf), fromAddrs("hi", highHalf)},
		struct {
			name string
			a, b *Dataset
		}{"interleaved", fromAddrs("even", even), fromAddrs("odd", odd)},
	)
	for i := 0; i < 20; i++ {
		cases = append(cases, struct {
			name string
			a, b *Dataset
		}{"random", mk(rng.Intn(300)), mk(rng.Intn(300))})
	}

	for _, tc := range cases {
		want := mapIntersection(tc.a, tc.b)
		if got := IntersectionSize(tc.a, tc.b); got != want {
			t.Errorf("%s: IntersectionSize = %d, map baseline = %d", tc.name, got, want)
		}
		if got := IntersectionSize(tc.b, tc.a); got != want {
			t.Errorf("%s (swapped): IntersectionSize = %d, map baseline = %d", tc.name, got, want)
		}
		// EachCommon must visit exactly the intersection, in canonical
		// order, with indices that resolve to equal addresses.
		visited := 0
		prevSet := false
		var prev addr.Addr
		EachCommon(tc.a, tc.b, func(ai, bi int) bool {
			x, y := tc.a.View()[ai], tc.b.View()[bi]
			if x != y {
				t.Fatalf("%s: EachCommon indices disagree: %v vs %v", tc.name, x, y)
			}
			if prevSet && !prev.Less(x) {
				t.Fatalf("%s: EachCommon out of order", tc.name)
			}
			prev, prevSet = x, true
			visited++
			return true
		})
		if visited != want {
			t.Errorf("%s: EachCommon visited %d, want %d", tc.name, visited, want)
		}
	}
}

// TestCommonP48sAgainstMapBaseline checks the merged /48 intersection
// against explicit prefix sets.
func TestCommonP48sAgainstMapBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		a := fromAddrs("a", randAddrs(rng, rng.Intn(400)))
		b := fromAddrs("b", randAddrs(rng, rng.Intn(400)))
		pa := make(map[addr.Prefix48]struct{})
		a.Each(func(x addr.Addr) bool { pa[x.P48()] = struct{}{}; return true })
		want := 0
		seen := make(map[addr.Prefix48]struct{})
		b.Each(func(x addr.Addr) bool {
			p := x.P48()
			if _, dup := seen[p]; dup {
				return true
			}
			seen[p] = struct{}{}
			if _, ok := pa[p]; ok {
				want++
			}
			return true
		})
		if got := CommonP48s(a, b); got != want {
			t.Errorf("CommonP48s = %d, map baseline = %d", got, want)
		}
	}
}

// TestDatasetSealing exercises the lazy sort-dedup seal: interleaved
// out-of-order inserts, duplicate inserts and reads.
func TestDatasetSealing(t *testing.T) {
	d := NewDataset("seal")
	a1 := addr.MustParse("2001:db8::1")
	a2 := addr.MustParse("2001:db8::2")
	a3 := addr.MustParse("2001:db8::3")
	d.Add(a3)
	d.Add(a1)
	if !d.Contains(a1) || !d.Contains(a3) || d.Contains(a2) {
		t.Fatal("membership wrong after out-of-order insert")
	}
	d.Add(a2) // insert after a read re-dirties the slab
	d.Add(a2) // duplicate
	d.Add(a3) // duplicate of an earlier element
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	view := d.View()
	for i := 1; i < len(view); i++ {
		if !view[i-1].Less(view[i]) {
			t.Fatalf("view not strictly sorted: %v", view)
		}
	}
	// Addrs returns a copy: mutating it must not corrupt the dataset.
	cp := d.Addrs()
	cp[0] = addr.MustParse("ffff::")
	if !d.Contains(a1) {
		t.Fatal("Addrs copy aliases the dataset slab")
	}
}

// AddAll inserts every address of the slice.
func (d *Dataset) AddAll(as []addr.Addr) {
	for _, a := range as {
		d.Add(a)
	}
}

// Contains reports membership by binary search.
func (d *Dataset) Contains(a addr.Addr) bool {
	d.seal()
	i := sort.Search(len(d.addrs), func(i int) bool { return !d.addrs[i].Less(a) })
	return i < len(d.addrs) && d.addrs[i] == a
}
