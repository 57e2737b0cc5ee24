// Package geodb is the MaxMind-GeoLite2 stand-in: a prefix-to-country
// database. The paper uses MaxMind only at country granularity (its §3
// Geolocation paragraph explicitly distrusts finer-grained results), so
// that is all this database offers.
package geodb

import (
	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
)

// DB maps IPv6 prefixes to ISO 3166-1 alpha-2 country codes.
type DB struct {
	table *asdb.Trie[string]
}

// New returns an empty country database.
func New() *DB {
	return &DB{table: asdb.NewTrie[string]()}
}

// Add records that a prefix geolocates to country (ISO alpha-2).
func (db *DB) Add(p addr.Prefix, country string) {
	db.table.Insert(p, country)
}

// Country returns the country for an address, or "" when unknown.
func (db *DB) Country(a addr.Addr) string {
	c, _ := db.table.Lookup(a)
	return c
}

// NewMemo returns a one-segment memo over the country table (see
// asdb.Memo): its Lookup returns Country's answer and whether any prefix
// matched. Not safe for concurrent use.
func (db *DB) NewMemo() *asdb.Memo[string] { return db.table.NewMemo() }

// FromASDB builds a country database from AS registration countries: every
// routed prefix geolocates to its origin AS's country. This mirrors how
// country-level IP geolocation behaves in practice for eyeball networks.
func FromASDB(db *asdb.DB) *DB {
	g := New()
	for _, rp := range db.RoutedPrefixes() {
		if as := db.Get(rp.Origin); as != nil && as.Country != "" {
			g.Add(rp.Prefix, as.Country)
		}
	}
	return g
}
