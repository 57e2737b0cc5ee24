package geodb

import (
	"testing"

	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
)

func TestCountryLookup(t *testing.T) {
	db := New()
	db.Add(addr.MustParsePrefix("2001:db8::/32"), "DE")
	db.Add(addr.MustParsePrefix("2001:db8:1::/48"), "FR")
	if got := db.Country(addr.MustParse("2001:db8::1")); got != "DE" {
		t.Errorf("got %q want DE", got)
	}
	if got := db.Country(addr.MustParse("2001:db8:1::1")); got != "FR" {
		t.Errorf("longest match: got %q want FR", got)
	}
	if got := db.Country(addr.MustParse("2a00::1")); got != "" {
		t.Errorf("unknown prefix: got %q want empty", got)
	}
}

func TestCountryMemo(t *testing.T) {
	db := New()
	db.Add(addr.MustParsePrefix("2001:db8::/32"), "DE")
	db.Add(addr.MustParsePrefix("2001:db8:1::/48"), "FR")
	m := db.NewMemo()
	for round := 0; round < 2; round++ {
		for _, s := range []string{"2001:db8::1", "2001:db8:1::1", "2001:db8:1::2", "2a00::1", "2001:db8::2"} {
			a := addr.MustParse(s)
			if got, _ := m.Lookup(a); got != db.Country(a) {
				t.Errorf("round %d: memo Lookup(%s) = %q, want %q", round, s, got, db.Country(a))
			}
		}
		db.Add(addr.MustParsePrefix("2a00::/16"), "NL")
	}
}

func TestFromASDB(t *testing.T) {
	adb := asdb.NewDB()
	if err := adb.AddAS(asdb.AS{
		ASN: 55836, Name: "Reliance Jio", Country: "IN",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("2409:4000::/22")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := adb.AddAS(asdb.AS{
		ASN: 7922, Name: "Comcast", Country: "US",
		Prefixes: []addr.Prefix{addr.MustParsePrefix("2601::/20")},
	}); err != nil {
		t.Fatal(err)
	}
	g := FromASDB(adb)
	if got := g.Country(addr.MustParse("2409:4000::1")); got != "IN" {
		t.Errorf("got %q want IN", got)
	}
	if got := g.Country(addr.MustParse("2601::1")); got != "US" {
		t.Errorf("got %q want US", got)
	}
}

func TestCountryCountsAndTop(t *testing.T) {
	db := New()
	db.Add(addr.MustParsePrefix("2001:db8::/32"), "IN")
	db.Add(addr.MustParsePrefix("2001:db9::/32"), "US")
	addrs := []addr.Addr{
		addr.MustParse("2001:db8::1"),
		addr.MustParse("2001:db8::2"),
		addr.MustParse("2001:db9::1"),
		addr.MustParse("2a00::1"), // unknown, not counted
	}
	counts := db.CountryCounts(addrs)
	if counts["IN"] != 2 || counts["US"] != 1 || len(counts) != 2 {
		t.Errorf("counts: %v", counts)
	}
	top := TopCountries(counts, 1)
	if len(top) != 1 || top[0].Country != "IN" || top[0].Count != 2 {
		t.Errorf("top: %v", top)
	}
	// Tie-break alphabetically.
	top2 := TopCountries(map[string]int{"ZZ": 5, "AA": 5}, 2)
	if top2[0].Country != "AA" {
		t.Errorf("tie break: %v", top2)
	}
}
