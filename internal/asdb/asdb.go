package asdb

import (
	"fmt"
	"sort"

	"hitlist6/internal/addr"
)

// ASN is an Autonomous System Number.
type ASN uint32

// ASType is the coarse ASdb category the paper uses when comparing dataset
// composition (§4.1): it reports "Computer and Information Technology /
// Internet Service Provider (ISP)" as the top type everywhere and a 14%
// "Phone Provider" share in the NTP corpus vs 2% in the IPv6 Hitlist.
type ASType uint8

const (
	// TypeISP is a fixed-line Internet Service Provider.
	TypeISP ASType = iota
	// TypePhoneProvider is a mobile carrier ("Phone Provider" ISP subtype).
	TypePhoneProvider
	// TypeHosting is cloud/hosting/data-center.
	TypeHosting
	// TypeEducation is academic and research networks.
	TypeEducation
	// TypeEnterprise is corporate networks.
	TypeEnterprise
	// TypeBackbone is transit/backbone carriers.
	TypeBackbone
	// NumASTypes is the number of AS types.
	NumASTypes
)

// String names the type with ASdb-style labels.
func (t ASType) String() string {
	switch t {
	case TypeISP:
		return "Internet Service Provider (ISP)"
	case TypePhoneProvider:
		return "Phone Provider"
	case TypeHosting:
		return "Hosting and Cloud Provider"
	case TypeEducation:
		return "Education and Research"
	case TypeEnterprise:
		return "Enterprise"
	case TypeBackbone:
		return "Backbone Carrier"
	default:
		return "Unknown"
	}
}

// AS is one Autonomous System's metadata.
type AS struct {
	ASN     ASN
	Name    string
	Country string // ISO 3166-1 alpha-2
	Type    ASType
	// Prefixes are the routed prefixes originated by this AS.
	Prefixes []addr.Prefix
}

// DB is the AS database: metadata by ASN plus a longest-prefix-match table
// from routed prefixes to origin ASN.
type DB struct {
	byASN map[ASN]*AS
	table *Trie[ASN]
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{byASN: make(map[ASN]*AS), table: NewTrie[ASN]()}
}

// AddAS registers an AS. Re-registering an ASN is an error.
func (db *DB) AddAS(as AS) error {
	if _, dup := db.byASN[as.ASN]; dup {
		return fmt.Errorf("asdb: ASN %d already registered", as.ASN)
	}
	cp := as
	cp.Prefixes = append([]addr.Prefix(nil), as.Prefixes...)
	db.byASN[as.ASN] = &cp
	for _, p := range cp.Prefixes {
		db.table.Insert(p, as.ASN)
	}
	return nil
}

// Announce adds a routed prefix to an existing AS.
func (db *DB) Announce(asn ASN, p addr.Prefix) error {
	as, ok := db.byASN[asn]
	if !ok {
		return fmt.Errorf("asdb: unknown ASN %d", asn)
	}
	as.Prefixes = append(as.Prefixes, p)
	db.table.Insert(p, asn)
	return nil
}

// OriginASN returns the origin AS of an address via longest-prefix match.
func (db *DB) OriginASN(a addr.Addr) (ASN, bool) {
	return db.table.Lookup(a)
}

// Lookup returns the AS metadata for an address, or nil when unrouted.
func (db *DB) Lookup(a addr.Addr) *AS {
	asn, ok := db.table.Lookup(a)
	if !ok {
		return nil
	}
	return db.byASN[asn]
}

// NewMemo returns a one-segment memo over the routing table (see Memo):
// its Lookup answers as OriginASN does. Not safe for concurrent use.
func (db *DB) NewMemo() *Memo[ASN] { return db.table.NewMemo() }

// Get returns the AS metadata for an ASN, or nil.
func (db *DB) Get(asn ASN) *AS { return db.byASN[asn] }

// NumASes returns the number of registered ASes.
func (db *DB) NumASes() int { return len(db.byASN) }

// ASNs returns all registered ASNs in ascending order.
func (db *DB) ASNs() []ASN {
	out := make([]ASN, 0, len(db.byASN))
	for asn := range db.byASN {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RoutedPrefixes returns every routed prefix with its origin, in trie
// order. CAIDA-style routed /48 probing iterates exactly this list.
func (db *DB) RoutedPrefixes() []RoutedPrefix {
	var out []RoutedPrefix
	db.table.Walk(func(p addr.Prefix, asn ASN) bool {
		out = append(out, RoutedPrefix{Prefix: p, Origin: asn})
		return true
	})
	return out
}

// RoutedPrefix pairs a routed prefix with its origin AS.
type RoutedPrefix struct {
	Prefix addr.Prefix
	Origin ASN
}
