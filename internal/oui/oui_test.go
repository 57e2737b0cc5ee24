package oui

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hitlist6/internal/addr"
)

func TestLookupTable2Vendors(t *testing.T) {
	r := NewRegistry(10)
	cases := map[string]string{
		"0c:47:c9:01:02:03": "Amazon Technologies Inc.",
		"08:d4:2b:aa:bb:cc": "Samsung Electronics Co.,Ltd",
		"b8:e9:37:00:00:01": "Sonos, Inc.",
		"28:fb:ae:12:34:56": "Huawei Technologies",
		"c8:0e:14:99:88:77": "AVM GmbH",
	}
	for macStr, want := range cases {
		m := parseMAC(t, macStr)
		if got := r.LookupMAC(m); got != want {
			t.Errorf("LookupMAC(%s): got %q want %q", macStr, got, want)
		}
	}
}

func TestLookupUnlisted(t *testing.T) {
	r := NewRegistry(0)
	// The paper's exemplar unregistered OUI.
	m := parseMAC(t, "f0:02:20:12:34:56")
	if got := r.LookupMAC(m); got != Unlisted {
		t.Errorf("phantom OUI: got %q want %q", got, Unlisted)
	}
	// Locally administered MACs never resolve.
	local := parseMAC(t, "0a:47:c9:01:02:03")
	if got := r.LookupMAC(local); got != Unlisted {
		t.Errorf("local MAC: got %q want %q", got, Unlisted)
	}
}

func TestMintMAC(t *testing.T) {
	r := NewRegistry(5)
	rng := rand.New(rand.NewSource(1))
	for _, vendor := range r.Vendors() {
		m, err := r.MintMAC(rng, vendor)
		if err != nil {
			t.Fatalf("MintMAC(%q): %v", vendor, err)
		}
		if got := r.LookupMAC(m); got != vendor {
			t.Errorf("minted MAC %v resolves to %q, want %q", m, got, vendor)
		}
	}
	if _, err := r.MintMAC(rng, "No Such Vendor"); err == nil {
		t.Error("expected error for unknown vendor")
	}
}

func TestMintPhantomMAC(t *testing.T) {
	r := NewRegistry(0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		m := r.MintPhantomMAC(rng)
		if got := r.LookupMAC(m); got != Unlisted {
			t.Fatalf("phantom MAC %v resolved to %q", m, got)
		}
		if m[0]&0x03 != 0 { // locally administered or group bit
			t.Fatalf("phantom MAC %v has local/multicast bits", m)
		}
	}
}

func TestSyntheticVendorsDisjoint(t *testing.T) {
	r := NewRegistry(50)
	seen := make(map[addr.OUI]string)
	for _, v := range r.Vendors() {
		for _, o := range r.VendorOUIs(v) {
			if prev, dup := seen[o]; dup {
				t.Fatalf("OUI %v assigned to both %q and %q", o, prev, v)
			}
			seen[o] = v
		}
	}
	for _, p := range r.Phantoms() {
		if v, dup := seen[p]; dup {
			t.Fatalf("phantom OUI %v also registered to %q", p, v)
		}
	}
}

func TestRegistryDeterministic(t *testing.T) {
	a, b := NewRegistry(20), NewRegistry(20)
	va, vb := a.Vendors(), b.Vendors()
	if len(va) != len(vb) {
		t.Fatalf("vendor counts differ: %d vs %d", len(va), len(vb))
	}
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("vendor %d differs: %q vs %q", i, va[i], vb[i])
		}
		oa, ob := a.VendorOUIs(va[i]), b.VendorOUIs(vb[i])
		if len(oa) != len(ob) {
			t.Fatalf("OUI counts differ for %q", va[i])
		}
		for j := range oa {
			if oa[j] != ob[j] {
				t.Fatalf("OUI %d differs for %q", j, va[i])
			}
		}
	}
}

func TestTable2VendorNames(t *testing.T) {
	names := Table2VendorNames()
	if len(names) != 9 {
		t.Fatalf("got %d names, want 9", len(names))
	}
	if names[0] != "Amazon Technologies Inc." {
		t.Errorf("first vendor: got %q", names[0])
	}
	r := NewRegistry(0)
	for _, n := range names {
		if len(r.VendorOUIs(n)) == 0 {
			t.Errorf("Table 2 vendor %q has no OUIs in the registry", n)
		}
	}
}

func parseMAC(t *testing.T, s string) addr.MAC {
	t.Helper()
	var m addr.MAC
	n, err := fmt.Sscanf(s, "%02x:%02x:%02x:%02x:%02x:%02x",
		&m[0], &m[1], &m[2], &m[3], &m[4], &m[5])
	if err != nil || n != 6 {
		t.Fatalf("bad MAC literal %q: %v", s, err)
	}
	return m
}

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

// Table2VendorNames returns the nine listed manufacturers the paper's
// Table 2 reports, in paper order, for the experiment harness.
func Table2VendorNames() []string {
	names := make([]string, 0, 9)
	for _, v := range table2Vendors[:9] {
		names = append(names, v.Name)
	}
	return names
}
