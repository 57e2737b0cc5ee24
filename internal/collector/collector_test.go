package collector

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"hitlist6/internal/addr"
)

var t0 = time.Date(2022, 1, 25, 0, 0, 0, 0, time.UTC)

func TestObserveBasics(t *testing.T) {
	c := New()
	a := addr.MustParse("2001:db8::1")
	c.Observe(a, t0, 0)
	c.Observe(a, t0.Add(time.Hour), 3)
	c.Observe(a, t0.Add(2*time.Hour), 0)

	if c.NumAddrs() != 1 {
		t.Fatalf("NumAddrs: %d", c.NumAddrs())
	}
	r, ok := c.Get(a)
	if !ok {
		t.Fatal("record missing")
	}
	if r.Count != 3 {
		t.Errorf("count: %d", r.Count)
	}
	if r.Lifetime() != 2*time.Hour {
		t.Errorf("lifetime: %v", r.Lifetime())
	}
	if r.Servers != 0b1001 {
		t.Errorf("servers: %b", r.Servers)
	}
	if c.TotalObservations() != 3 {
		t.Errorf("total: %d", c.TotalObservations())
	}
	if _, ok := c.Get(addr.MustParse("2001:db8::2")); ok {
		t.Error("phantom record")
	}
}

func TestObserveOutOfOrderTimestamps(t *testing.T) {
	c := New()
	a := addr.MustParse("2001:db8::2")
	c.Observe(a, t0.Add(time.Hour), 0)
	c.Observe(a, t0, 0) // earlier sighting arrives later
	r, _ := c.Get(a)
	if r.First != t0.Unix() || r.Last != t0.Add(time.Hour).Unix() {
		t.Errorf("first/last: %d/%d", r.First, r.Last)
	}
}

func TestObservedOnceLifetimeZero(t *testing.T) {
	c := New()
	a := addr.MustParse("2001:db8::3")
	c.Observe(a, t0, 1)
	if r, _ := c.Get(a); r.Lifetime() != 0 {
		t.Errorf("lifetime of single sighting: %v", r.Lifetime())
	}
}

func TestIIDAggregation(t *testing.T) {
	c := New()
	// Same IID in two /64s (a renumbered EUI-64 host).
	mac := addr.MAC{0xf0, 0x02, 0x20, 1, 2, 3}
	iid := addr.EUI64FromMAC(mac)
	a1 := addr.FromParts(0x20010db8_00010000, uint64(iid))
	a2 := addr.FromParts(0x20010db8_00020000, uint64(iid))
	c.Observe(a1, t0, 0)
	c.Observe(a2, t0.Add(48*time.Hour), 0)

	r, ok := c.GetIID(iid)
	if !ok {
		t.Fatal("IID record missing")
	}
	if r.Count() != 2 {
		t.Errorf("count: %d", r.Count())
	}
	if r.Lifetime() != 48*time.Hour {
		t.Errorf("lifetime: %v", r.Lifetime())
	}
	if !r.Tracked() || r.NumP64s() != 2 {
		t.Fatalf("tracked=%v NumP64s=%d", r.Tracked(), r.NumP64s())
	}
	sp, ok := r.Span(a1.P64())
	if !ok || sp.First != t0.Unix() || sp.Last != t0.Unix() {
		t.Errorf("span for first /64: %+v (ok=%v)", sp, ok)
	}
	if _, ok := r.Span(addr.MustParse("2001:db8:9999::").P64()); ok {
		t.Error("span for unobserved /64")
	}
	// P64s visits both spans exactly once.
	seen := map[addr.Prefix64]Span{}
	r.P64s(func(p addr.Prefix64, sp Span) bool {
		if _, dup := seen[p]; dup {
			t.Errorf("duplicate span for %v", p)
		}
		seen[p] = sp
		return true
	})
	if len(seen) != 2 {
		t.Errorf("P64s visited %d spans", len(seen))
	}
}

func TestNonEUI64IIDNoP64Tracking(t *testing.T) {
	c := New()
	a := addr.MustParse("2001:db8::dead:beef:1234:5678")
	c.Observe(a, t0, 0)
	r, ok := c.GetIID(a.IID())
	if !ok {
		t.Fatal("IID record missing")
	}
	if r.Tracked() || r.NumP64s() != 0 {
		t.Error("non-EUI-64 IID should not carry /64 tracking")
	}
	n := 0
	r.P64s(func(addr.Prefix64, Span) bool { n++; return true })
	if n != 0 {
		t.Errorf("P64s on untracked IID visited %d", n)
	}
}

func TestEUI64IIDsIteration(t *testing.T) {
	c := New()
	mac := addr.MAC{0xf0, 0x02, 0x20, 9, 9, 9}
	eui := addr.FromParts(0x20010db8_00010000, uint64(addr.EUI64FromMAC(mac)))
	plain := addr.MustParse("2001:db8::1111:2222:3333:4444")
	c.Observe(eui, t0, 0)
	c.Observe(plain, t0, 0)

	n := 0
	c.EUI64IIDs(func(iid addr.IID, r IIDView) bool {
		n++
		if !iid.IsEUI64() {
			t.Errorf("non-EUI-64 IID in EUI64IIDs iteration")
		}
		if !r.Tracked() {
			t.Error("EUI64IIDs yielded untracked view")
		}
		return true
	})
	if n != 1 {
		t.Errorf("EUI64IIDs visited %d, want 1", n)
	}
}

func TestUniquePrefixCounts(t *testing.T) {
	c := New()
	c.Observe(addr.MustParse("2001:db8:1:1::a"), t0, 0)
	c.Observe(addr.MustParse("2001:db8:1:2::b"), t0, 0)
	c.Observe(addr.MustParse("2001:db8:2:1::c"), t0, 0)
	if got := c.Unique48s(); got != 2 {
		t.Errorf("Unique48s: %d", got)
	}
	if got := c.Unique64s(); got != 3 {
		t.Errorf("Unique64s: %d", got)
	}
	if got := len(c.AddressList()); got != 3 {
		t.Errorf("AddressList: %d", got)
	}
}

// recomputeUniques is the seed's throwaway-map path, kept as the
// reference for the incremental counters.
func recomputeUniques(c *Collector) (p48s, p64s int) {
	s48 := make(map[addr.Prefix48]struct{})
	s64 := make(map[addr.Prefix64]struct{})
	c.Addrs(func(a addr.Addr, _ AddrRecord) bool {
		s48[a.P48()] = struct{}{}
		s64[a.P64()] = struct{}{}
		return true
	})
	return len(s48), len(s64)
}

// TestUniqueCountsMatchRecompute pins the incremental distinct-/48 and
// /64 counters to the full recompute across observes, duplicate
// sightings, and merges.
func TestUniqueCountsMatchRecompute(t *testing.T) {
	check := func(label string, c *Collector) {
		t.Helper()
		w48, w64 := recomputeUniques(c)
		if c.Unique48s() != w48 || c.Unique64s() != w64 {
			t.Errorf("%s: incremental (%d,%d) vs recompute (%d,%d)",
				label, c.Unique48s(), c.Unique64s(), w48, w64)
		}
	}

	a := New()
	state := uint64(99)
	for i := 0; i < 2000; i++ {
		r := splitmix64(&state)
		// Small pools of /48s and IIDs force heavy prefix sharing.
		hi := 0x20010db8_00000000 | (r>>8)%64<<16 | r%8
		a.ObserveUnix(addr.FromParts(hi, splitmix64(&state)%256), 1000+int64(i), int(r%32))
	}
	check("after observes", a)

	b := New()
	for i := 0; i < 2000; i++ {
		r := splitmix64(&state)
		hi := 0x20010db8_00000000 | (r>>8)%64<<16 | r%8
		b.ObserveUnix(addr.FromParts(hi, splitmix64(&state)%256), 5000+int64(i), int(r%32))
	}
	check("second collector", b)

	a.Merge(b)
	check("after merge", a)
	a.Merge(New())
	check("after empty merge", a)

	empty := New()
	empty.Merge(b)
	check("merge into empty", empty)
}

func TestIterationEarlyStop(t *testing.T) {
	c := New()
	for i := 0; i < 10; i++ {
		c.Observe(addr.FromParts(0x20010db8_00000000, uint64(i+1)), t0, 0)
	}
	n := 0
	c.Addrs(func(addr.Addr, AddrRecord) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("Addrs early stop: %d", n)
	}
	n = 0
	c.IIDs(func(addr.IID, IIDView) bool { n++; return false })
	if n != 1 {
		t.Errorf("IIDs early stop: %d", n)
	}
	n = 0
	c.AddrsCanonical(func(addr.Addr, AddrRecord) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("AddrsCanonical early stop: %d", n)
	}
}

func TestAddrsCanonicalOrder(t *testing.T) {
	c := New()
	for i := 0; i < 50; i++ {
		state := uint64(i) * 0x9e3779b97f4a7c15
		c.Observe(addr.FromParts(splitmix64(&state), splitmix64(&state)), t0, 0)
	}
	var prev addr.Addr
	n := 0
	c.AddrsCanonical(func(a addr.Addr, r AddrRecord) bool {
		if n > 0 {
			if prev.Hi() > a.Hi() || (prev.Hi() == a.Hi() && prev.Lo() >= a.Lo()) {
				t.Fatalf("canonical order violated: %s then %s", prev, a)
			}
		}
		if r.Count == 0 {
			t.Fatalf("empty record for %s", a)
		}
		prev = a
		n++
		return true
	})
	if n != c.NumAddrs() {
		t.Errorf("visited %d of %d", n, c.NumAddrs())
	}
}

func TestServerIndexClamping(t *testing.T) {
	c := New()
	a := addr.MustParse("2001:db8::9")
	c.Observe(a, t0, 40) // above bit 31: clamps to bit 31
	c.Observe(a, t0, -1) // negative: no bit
	r, _ := c.Get(a)
	if r.Servers != 1<<31 {
		t.Errorf("servers: %b", r.Servers)
	}
}

func TestMemoryFootprintGrows(t *testing.T) {
	c := New()
	if c.MemoryFootprint() != 0 {
		t.Errorf("empty collector footprint %d", c.MemoryFootprint())
	}
	before := c.MemoryFootprint()
	for i := 0; i < 1000; i++ {
		c.Observe(addr.FromParts(0x20010db8_00000000|uint64(i)<<16, uint64(i)), t0, 0)
	}
	after := c.MemoryFootprint()
	if after <= before {
		t.Errorf("footprint did not grow: %d -> %d", before, after)
	}
	// Sanity bound: the flat layout should stay well under ~400 bytes
	// per unique address at this scale, slab-growth slack included.
	if perAddr := after / 1000; perAddr > 400 {
		t.Errorf("footprint %d bytes/addr implausibly high", perAddr)
	}
}

// TestMemoryFootprintExact holds MemoryFootprint to the "exact" its doc
// comment promises. The expected figure is computed without the
// engine's accounting: every slice reachable through the collector's
// fields, slabs, tables, tags, prefix sets and dirty set alike, counted
// at cap × element size. Collectors are built every way one can be.
func TestMemoryFootprintExact(t *testing.T) {
	addrs, times, servers := goldenStream()
	serial := New()
	feedGolden(serial, addrs, times, servers, 0, len(addrs))

	var b Buffer
	for i := range addrs {
		b.ObserveUnix(addrs[i], times[i], servers[i])
	}
	adopted := New()
	adopted.AbsorbBuffer(&b)
	folded := New()
	for half := 0; half < 2; half++ {
		for i := half * len(addrs) / 2; i < (half+1)*len(addrs)/2; i++ {
			b.ObserveUnix(addrs[i], times[i], servers[i])
		}
		folded.AbsorbBuffer(&b)
	}

	var snap bytes.Buffer
	if err := serial.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	feedGolden(restored, addrs, times, servers, 0, 100) // dirties blocks

	for _, tc := range []struct {
		name string
		c    *Collector
	}{{"empty", New()}, {"serial", serial}, {"adopted", adopted}, {"folded", folded}, {"restored+dirty", restored}} {
		if got, want := tc.c.MemoryFootprint(), ownedBytes(reflect.ValueOf(tc.c).Elem()); got != want {
			t.Errorf("%s: MemoryFootprint %d, owned bytes %d", tc.name, got, want)
		}
	}
}

// ownedBytes sums cap × element size over every slice reachable through
// v's fields. A slice of slices (a slab's chunk list) counts its
// elements' arrays, not its own array of slice headers.
func ownedBytes(v reflect.Value) uint64 {
	switch v.Kind() {
	case reflect.Struct:
		var n uint64
		for i := 0; i < v.NumField(); i++ {
			n += ownedBytes(v.Field(i))
		}
		return n
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Slice {
			return uint64(v.Cap()) * uint64(v.Type().Elem().Size())
		}
		var n uint64
		for i := 0; i < v.Len(); i++ {
			n += ownedBytes(v.Index(i))
		}
		return n
	}
	return 0
}
