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
