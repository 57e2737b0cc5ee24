// Package oui implements the IEEE OUI (Organizationally Unique Identifier)
// registry used to resolve MAC addresses extracted from EUI-64 IIDs to
// device manufacturers (paper §5.1, Table 2).
//
// The embedded registry carries the manufacturers the paper reports in
// Table 2 with several real OUI assignments each, plus a deterministic
// synthetic fill so that simulations can draw vendor-realistic MACs. The
// paper's headline observation — that 73.9% of embedded MACs resolve to
// *no* registered manufacturer ("Unlisted"), led by the unregistered OUI
// F0:02:20 — is modeled explicitly: the registry knows a set of
// "phantom" OUIs that real devices use but the IEEE database does not list.
package oui

import (
	"fmt"
	"math/rand"
	"sort"

	"hitlist6/internal/addr"
	"hitlist6/internal/rng"
)

// Unlisted is the vendor name returned for MACs whose OUI has no registry
// entry, matching the paper's terminology.
const Unlisted = "Unlisted"

// Registry maps OUIs to manufacturer names and can mint vendor-realistic
// MAC addresses for the simulator.
type Registry struct {
	vendors map[addr.OUI]string
	// byVendor lists OUIs per vendor, sorted for determinism.
	byVendor map[string][]addr.OUI
	// phantoms are OUIs in active use by devices yet absent from the
	// registry ("Unlisted" in Table 2); F0:02:20 is the paper's exemplar.
	phantoms []addr.OUI
}

// Vendor is one registered manufacturer with its assigned OUIs.
type Vendor struct {
	Name string
	OUIs []addr.OUI
}

// table2Vendors are the nine listed manufacturers from the paper's Table 2,
// with representative real IEEE assignments.
var table2Vendors = []Vendor{
	{"Amazon Technologies Inc.", ouis("0c47c9", "38f73d", "44650d", "6837e9", "747548", "a002dc", "f0272d", "fc65de")},
	{"Samsung Electronics Co.,Ltd", ouis("002399", "08d42b", "30cda7", "5c497d", "8425db", "a8f274", "c44202", "e8508b")},
	{"Sonos, Inc.", ouis("000e58", "347e5c", "5ca6e6", "949f3e", "b8e937")},
	{"vivo Mobile Communication Co., Ltd.", ouis("1c77f6", "503dc6", "7c6456", "a89675", "e0dcff")},
	{"Sunnovo International Limited", ouis("4cecef", "78d38d", "a4da22")},
	{"Hui Zhou Gaoshengda Technology Co.,LTD", ouis("088620", "1c967a", "40f14c", "88d7f6")},
	{"Huawei Technologies", ouis("00259e", "28fbae", "48435a", "781dba", "a4933f", "c85195", "f48e92")},
	{"Shenzhen Chuangwei-RGB Electronics", ouis("08e672", "3c0cdb", "d473c6")},
	{"Skyworth Digital Technology (Shenzhen) Co.,Ltd", ouis("14f65a", "88de7c", "cc2d83")},
	// AVM GmbH dominates the paper's geolocation result (80% of geolocated
	// EUI-64 addresses are Fritz!Box CPE).
	{"AVM GmbH", ouis("3810d5", "5c4979", "7cff4d", "c80e14", "e0286d")},
	// A few additional common vendors for simulation texture.
	{"Apple, Inc.", ouis("003ee1", "28e7cf", "68ab1e", "a860b6")},
	{"Intel Corporate", ouis("001b21", "3c5282", "a0a4c5")},
	{"TP-LINK Technologies Co.,Ltd", ouis("14cc20", "50c7bf", "c46e1f")},
	{"Xiaomi Communications Co Ltd", ouis("28e31f", "64b473", "f8a45f")},
	{"LG Electronics", ouis("001c62", "58a2b5", "cc2d8c")},
}

// defaultPhantoms are in-use but unregistered OUIs; F0:02:20 is the most
// frequent "Unlisted" OUI in the paper (52,218 distinct MACs).
var defaultPhantoms = ouis(
	"f00220", "a8aa20", "f00221", "f00222", "d0ff10", "e41022", "9cfff0",
	"b00bee", "c0ffe0", "dcca10", "f8b004", "085e55",
)

func ouis(hex ...string) []addr.OUI {
	out := make([]addr.OUI, len(hex))
	for i, h := range hex {
		if len(h) != 6 {
			panic(fmt.Sprintf("oui: bad literal %q", h))
		}
		for j := 0; j < 3; j++ {
			var b byte
			if _, err := fmt.Sscanf(h[2*j:2*j+2], "%02x", &b); err != nil {
				panic(err)
			}
			out[i][j] = b
		}
	}
	return out
}

// NewRegistry builds the embedded registry: Table 2 vendors plus
// syntheticVendors deterministic filler manufacturers (3 OUIs each).
func NewRegistry(syntheticVendors int) *Registry {
	r := &Registry{
		vendors:  make(map[addr.OUI]string),
		byVendor: make(map[string][]addr.OUI),
		phantoms: append([]addr.OUI(nil), defaultPhantoms...),
	}
	for _, v := range table2Vendors {
		r.add(v)
	}
	rnd := rand.New(rng.NewSource(0x0111)) // fixed: the registry is a fixture
	for i := 0; i < syntheticVendors; i++ {
		v := Vendor{Name: fmt.Sprintf("Synthetic Devices %03d Corp.", i)}
		for j := 0; j < 3; j++ {
			o := randomOUI(rnd)
			for r.vendors[o] != "" || r.isPhantom(o) {
				o = randomOUI(rnd)
			}
			v.OUIs = append(v.OUIs, o)
		}
		r.add(v)
	}
	return r
}

func randomOUI(rng *rand.Rand) addr.OUI {
	var o addr.OUI
	o[0] = byte(rng.Intn(256)) &^ 0x03 // universal, unicast
	o[1] = byte(rng.Intn(256))
	o[2] = byte(rng.Intn(256))
	return o
}

func (r *Registry) add(v Vendor) {
	for _, o := range v.OUIs {
		r.vendors[o] = v.Name
	}
	r.byVendor[v.Name] = append(r.byVendor[v.Name], v.OUIs...)
	sort.Slice(r.byVendor[v.Name], func(i, j int) bool {
		a, b := r.byVendor[v.Name][i], r.byVendor[v.Name][j]
		return a[0] != b[0] && a[0] < b[0] || a[0] == b[0] && (a[1] < b[1] || a[1] == b[1] && a[2] < b[2])
	})
}

func (r *Registry) isPhantom(o addr.OUI) bool {
	for _, p := range r.phantoms {
		if p == o {
			return true
		}
	}
	return false
}

// Lookup resolves an OUI to its manufacturer, or Unlisted when the OUI has
// no registry entry (including phantom OUIs and locally administered
// addresses, which are never registered).
func (r *Registry) Lookup(o addr.OUI) string {
	if o[0]&0x02 != 0 { // locally administered: never in the registry
		return Unlisted
	}
	if name, ok := r.vendors[o]; ok {
		return name
	}
	return Unlisted
}

// LookupMAC resolves a MAC's vendor via its OUI.
func (r *Registry) LookupMAC(m addr.MAC) string { return r.Lookup(m.OUI()) }

// Vendors returns the registered vendor names, sorted.
func (r *Registry) Vendors() []string {
	out := make([]string, 0, len(r.byVendor))
	for name := range r.byVendor {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// VendorOUIs returns the OUIs assigned to a vendor (nil if unknown).
func (r *Registry) VendorOUIs(name string) []addr.OUI {
	return r.byVendor[name]
}

// Phantoms returns the in-use but unregistered OUIs.
func (r *Registry) Phantoms() []addr.OUI {
	return append([]addr.OUI(nil), r.phantoms...)
}

// MintMAC draws a vendor-realistic MAC: a uniformly random NIC suffix under
// one of the vendor's OUIs.
func (r *Registry) MintMAC(rng *rand.Rand, vendor string) (addr.MAC, error) {
	os := r.byVendor[vendor]
	if len(os) == 0 {
		return addr.MAC{}, fmt.Errorf("oui: unknown vendor %q", vendor)
	}
	o := os[rng.Intn(len(os))]
	return macUnder(rng, o), nil
}

// MintPhantomMAC draws a MAC under one of the unregistered phantom OUIs.
func (r *Registry) MintPhantomMAC(rng *rand.Rand) addr.MAC {
	o := r.phantoms[rng.Intn(len(r.phantoms))]
	return macUnder(rng, o)
}

func macUnder(rng *rand.Rand, o addr.OUI) addr.MAC {
	s := uint32(rng.Int63n(1 << 24))
	return addr.MAC{o[0], o[1], o[2], byte(s >> 16), byte(s >> 8), byte(s)}
}

// Table2VendorNames returns the nine listed manufacturers the paper's
// Table 2 reports, in paper order, for the experiment harness.
func Table2VendorNames() []string {
	names := make([]string, 0, 9)
	for _, v := range table2Vendors[:9] {
		names = append(names, v.Name)
	}
	return names
}
