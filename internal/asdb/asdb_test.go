package asdb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hitlist6/internal/addr"
)

func TestTrieLongestPrefixMatch(t *testing.T) {
	tr := NewTrie[string]()
	tr.Insert(addr.MustParsePrefix("2001:db8::/32"), "coarse")
	tr.Insert(addr.MustParsePrefix("2001:db8:1::/48"), "fine")
	tr.Insert(addr.MustParsePrefix("2001:db8:1:2::/64"), "finest")

	cases := []struct {
		a    string
		want string
		ok   bool
	}{
		{"2001:db8::1", "coarse", true},
		{"2001:db8:1::1", "fine", true},
		{"2001:db8:1:2::1", "finest", true},
		{"2001:db8:1:3::1", "fine", true},
		{"2001:db9::1", "", false},
		{"::1", "", false},
	}
	for _, c := range cases {
		got, ok := tr.Lookup(addr.MustParse(c.a))
		if ok != c.ok || got != c.want {
			t.Errorf("Lookup(%s): got %q/%v want %q/%v", c.a, got, ok, c.want, c.ok)
		}
	}
}

func TestTrieInsertReplace(t *testing.T) {
	tr := NewTrie[int]()
	p := addr.MustParsePrefix("2001:db8::/32")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Errorf("Len after replace: got %d want 1", tr.Len())
	}
	if v, ok := tr.LookupPrefix(p); !ok || v != 2 {
		t.Errorf("LookupPrefix: got %d/%v", v, ok)
	}
}

func TestTrieLookupPrefixExact(t *testing.T) {
	tr := NewTrie[int]()
	tr.Insert(addr.MustParsePrefix("2001:db8::/32"), 7)
	if _, ok := tr.LookupPrefix(addr.MustParsePrefix("2001:db8::/33")); ok {
		t.Error("longer prefix should not match exactly")
	}
	if _, ok := tr.LookupPrefix(addr.MustParsePrefix("2001:db8::/31")); ok {
		t.Error("shorter prefix should not match exactly")
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	tr := NewTrie[string]()
	tr.Insert(addr.MustParsePrefix("::/0"), "default")
	if got, ok := tr.Lookup(addr.MustParse("abcd::1")); !ok || got != "default" {
		t.Errorf("default route: got %q/%v", got, ok)
	}
}

func TestTrieWalkOrderAndCompleteness(t *testing.T) {
	tr := NewTrie[int]()
	prefixes := []string{
		"2001:db8::/32", "2001:db8:1::/48", "::/0", "fe80::/10", "2001:db8:1:2::/64",
	}
	for i, s := range prefixes {
		tr.Insert(addr.MustParsePrefix(s), i)
	}
	var seen []string
	tr.Walk(func(p addr.Prefix, v int) bool {
		seen = append(seen, p.String())
		return true
	})
	if len(seen) != len(prefixes) {
		t.Fatalf("walk visited %d, want %d: %v", len(seen), len(prefixes), seen)
	}
	if seen[0] != "::/0" {
		t.Errorf("walk should start at the shortest root prefix, got %v", seen)
	}
	// Early stop.
	count := 0
	tr.Walk(func(addr.Prefix, int) bool { count++; return count < 2 })
	if count != 2 {
		t.Errorf("early stop: visited %d want 2", count)
	}
}

func TestTrieRandomizedAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := NewTrie[int]()
	type route struct {
		p addr.Prefix
		v int
	}
	var routes []route
	for i := 0; i < 300; i++ {
		hi := rng.Uint64()
		bits := 8 + rng.Intn(57) // /8 .. /64
		p, err := addr.NewPrefix(addr.FromParts(hi, 0), bits)
		if err != nil {
			t.Fatal(err)
		}
		tr.Insert(p, i)
		routes = append(routes, route{p, i})
	}
	// Replace duplicates in the linear model the same way the trie does.
	model := make(map[addr.Prefix]int)
	for _, r := range routes {
		model[r.p] = r.v
	}
	lpm := func(a addr.Addr) (int, bool) {
		best, bestBits, found := 0, -1, false
		for p, v := range model {
			if p.Contains(a) && p.Bits() > bestBits {
				best, bestBits, found = v, p.Bits(), true
			}
		}
		return best, found
	}
	for i := 0; i < 2000; i++ {
		var a addr.Addr
		if i%2 == 0 {
			// Probe inside a random route for guaranteed hits.
			r := routes[rng.Intn(len(routes))]
			a = r.p.Addr().WithIID(addr.IID(rng.Uint64()))
		} else {
			a = addr.FromParts(rng.Uint64(), rng.Uint64())
		}
		wantV, wantOK := lpm(a)
		gotV, gotOK := tr.Lookup(a)
		if gotOK != wantOK || (wantOK && gotV != wantV) {
			t.Fatalf("Lookup(%s): got %d/%v want %d/%v", a, gotV, gotOK, wantV, wantOK)
		}
	}
}

func TestDBBasics(t *testing.T) {
	db := NewDB()
	err := db.AddAS(AS{
		ASN: 21928, Name: "T-Mobile", Country: "US", Type: TypePhoneProvider,
		Prefixes: []addr.Prefix{addr.MustParsePrefix("2607:fb90::/28")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddAS(AS{ASN: 21928}); err == nil {
		t.Error("duplicate ASN should error")
	}
	a := addr.MustParse("2607:fb90::1234")
	asn, ok := db.OriginASN(a)
	if !ok || asn != 21928 {
		t.Errorf("OriginASN: got %d/%v", asn, ok)
	}
	if as := db.Lookup(a); as == nil || as.Name != "T-Mobile" {
		t.Errorf("Lookup: got %+v", as)
	}
	if db.Lookup(addr.MustParse("2a00::1")) != nil {
		t.Error("unrouted address should return nil")
	}
	if len(db.byASN) != 1 {
		t.Errorf("registered ASes: got %d", len(db.byASN))
	}
}

// TestDBMemo walks a memo between nested, sibling and unrouted
// addresses, before and after a registration changes the table; every
// answer must be the database's own.
func TestDBMemo(t *testing.T) {
	db := NewDB()
	if err := db.AddAS(AS{ASN: 100, Prefixes: []addr.Prefix{addr.MustParsePrefix("2001:db8::/32")}}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddAS(AS{ASN: 200, Prefixes: []addr.Prefix{addr.MustParsePrefix("2001:db8:1::/48")}}); err != nil {
		t.Fatal(err)
	}
	m := db.NewMemo()
	walk := []addr.Addr{
		addr.MustParse("2001:db8::1"), addr.MustParse("2001:db8::2"),
		addr.MustParse("2001:db8:1::1"), addr.MustParse("2001:db8:2::1"),
		addr.MustParse("2a00::1"), addr.MustParse("2a00::2"), addr.MustParse("2001:db8::3"),
	}
	for round := 0; round < 2; round++ {
		for _, a := range walk {
			gotASN, gotOK := m.Lookup(a)
			if wantASN, wantOK := db.OriginASN(a); gotASN != wantASN || gotOK != wantOK {
				t.Errorf("round %d: memo Lookup(%s) = %d/%v, want %d/%v", round, a, gotASN, gotOK, wantASN, wantOK)
			}
		}
		if round == 0 {
			if err := db.AddAS(AS{ASN: 300, Prefixes: []addr.Prefix{addr.MustParsePrefix("2a00::/16")}}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestRoutedPrefixes(t *testing.T) {
	db := NewDB()
	if err := db.AddAS(AS{ASN: 1, Prefixes: []addr.Prefix{
		addr.MustParsePrefix("2001:db8::/32"),
		addr.MustParsePrefix("2400::/24"),
	}}); err != nil {
		t.Fatal(err)
	}
	rps := db.RoutedPrefixes()
	if len(rps) != 2 {
		t.Fatalf("got %d routed prefixes", len(rps))
	}
	for _, rp := range rps {
		if rp.Origin != 1 {
			t.Errorf("origin: got %d", rp.Origin)
		}
	}
}

func TestASTypeStrings(t *testing.T) {
	for ty := ASType(0); ty < NumASTypes; ty++ {
		if ty.String() == "Unknown" || ty.String() == "" {
			t.Errorf("type %d has no label", ty)
		}
	}
}

func TestTrieInsertLookupProperty(t *testing.T) {
	f := func(hi uint64, bitsRaw uint8) bool {
		bits := int(bitsRaw) % 65 // 0..64
		tr := NewTrie[uint64]()
		p, err := addr.NewPrefix(addr.FromParts(hi, 0), bits)
		if err != nil {
			return false
		}
		tr.Insert(p, hi)
		// The base address must match its own prefix.
		v, ok := tr.Lookup(p.Addr())
		return ok && v == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
