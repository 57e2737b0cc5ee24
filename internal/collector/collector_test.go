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

	r, ok := c.CopyRecords().IIDTable().GetIID(iid)
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
	r, ok := c.CopyRecords().IIDTable().GetIID(a.IID())
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
	c.CopyRecords().IIDTable().EUI64IIDs(func(iid addr.IID, r IIDView) bool {
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

// iidRef is one IID's state, recomputed from the address records with
// throwaway maps: the reference for the read-time fold.
type iidRef struct {
	first, last int64
	count       uint32
	p64s        map[addr.Prefix64]Span
}

func recomputeIIDs(c *Collector) map[addr.IID]*iidRef {
	out := make(map[addr.IID]*iidRef)
	c.AddrsRange(0, c.NumAddrs(), func(a addr.Addr, r AddrRecord) bool {
		e := out[a.IID()]
		if e == nil {
			e = &iidRef{first: r.First, last: r.Last, p64s: make(map[addr.Prefix64]Span)}
			out[a.IID()] = e
		}
		e.first, e.last = min(e.first, r.First), max(e.last, r.Last)
		e.count += r.Count
		e.p64s[a.P64()] = Span{First: r.First, Last: r.Last}
		return true
	})
	return out
}

// TestIIDCountsMatchRecompute pins the IID table built from a corpus to
// the full recompute across observes, duplicate sightings, and merges.
func TestIIDCountsMatchRecompute(t *testing.T) {
	check := func(label string, c *Collector) {
		t.Helper()
		want := recomputeIIDs(c)
		tab := c.CopyRecords().IIDTable()
		if tab.NumIIDs() != len(want) {
			t.Errorf("%s: NumIIDs %d, recompute %d", label, tab.NumIIDs(), len(want))
		}
		for iid, w := range want {
			v, ok := tab.GetIID(iid)
			if !ok {
				t.Fatalf("%s: IID %x missing", label, uint64(iid))
			}
			if v.First() != w.first || v.Last() != w.last || v.Count() != w.count {
				t.Fatalf("%s: IID %x is %d/%d/%d, recompute %d/%d/%d", label, uint64(iid),
					v.First(), v.Last(), v.Count(), w.first, w.last, w.count)
			}
			if !iid.IsEUI64() {
				continue
			}
			if v.NumP64s() != len(w.p64s) {
				t.Fatalf("%s: IID %x in %d /64s, recompute %d", label, uint64(iid), v.NumP64s(), len(w.p64s))
			}
			for p, sp := range w.p64s {
				if got, ok := v.Span(p); !ok || got != sp {
					t.Fatalf("%s: IID %x span in %v is %+v (ok=%v), recompute %+v", label, uint64(iid), p, got, ok, sp)
				}
			}
		}
	}

	// Small pools of /64s and IIDs, a quarter of them EUI-64, force heavy
	// IID sharing across prefixes.
	macs := make([]addr.MAC, 16)
	for i := range macs {
		macs[i] = addr.MAC{0xf0, 0x02, 0x20, 7, 0, byte(i)}
	}
	state := uint64(99)
	fill := func(c *Collector, t0 int64) {
		for i := 0; i < 2000; i++ {
			r := splitmix64(&state)
			hi := 0x20010db8_00000000 | (r>>8)%64<<16 | r%8
			lo := splitmix64(&state) % 256
			if (r>>20)%4 == 0 {
				lo = uint64(addr.EUI64FromMAC(macs[lo%uint64(len(macs))]))
			}
			c.ObserveUnix(addr.FromParts(hi, lo), t0+int64(i), int(r%32))
		}
	}
	a := New()
	fill(a, 1000)
	check("after observes", a)

	b := New()
	fill(b, 5000)
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
	c.AddrsRange(0, c.NumAddrs(), func(addr.Addr, AddrRecord) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("AddrsRange early stop: %d", n)
	}
	n = 0
	c.CopyRecords().IIDTable().IIDs(func(addr.IID, IIDView) bool { n++; return false })
	if n != 1 {
		t.Errorf("IIDs early stop: %d", n)
	}
	n = 0
	c.CanonicalOrder()(func(addr.Addr, AddrRecord) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("CanonicalOrder early stop: %d", n)
	}
	if got := len(c.AddressList()); got != 10 {
		t.Errorf("AddressList: %d", got)
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
	c.CanonicalOrder()(func(a addr.Addr, r AddrRecord) bool {
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
// fields, slab, table, tags and dirty set alike, counted at cap ×
// element size. Collectors are built every way one can be.
func TestMemoryFootprintExact(t *testing.T) {
	addrs, times, servers := goldenStream()
	serial := New()
	feedGolden(serial, addrs, times, servers, 0, len(addrs))

	adopted := New()
	part := New()
	feedGolden(part, addrs, times, servers, 0, len(addrs))
	adopted.Absorb(part)
	folded := New()
	for half := 0; half < 2; half++ {
		part := New()
		feedGolden(part, addrs, times, servers, half*len(addrs)/2, (half+1)*len(addrs)/2)
		folded.Absorb(part)
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

// Tracked reports whether per-/64 spans are kept (EUI-64 IIDs only).
func (v IIDView) Tracked() bool {
	r := v.promoted()
	return r != nil && r.spans != spanNone
}

// Span returns the sighting window of the IID inside one /64.
func (v IIDView) Span(p addr.Prefix64) (Span, bool) {
	r := v.promoted()
	if r == nil {
		return Span{}, false
	}
	for i := r.spans; i != spanNone; {
		n := v.t.spans.at(i)
		if n.p64 == p {
			return Span{First: int64(n.first), Last: int64(n.last)}, true
		}
		i = n.next
	}
	return Span{}, false
}

// GetIID returns a view of the record for an IID; ok is false when the
// IID was never observed.
func (t *IIDTable) GetIID(iid addr.IID) (IIDView, bool) {
	ref, _, ok := t.findIID(iid, mix64(uint64(iid)))
	if !ok {
		return IIDView{}, false
	}
	return IIDView{t: t, ref: ref}, true
}

// IIDs iterates every (IID, view) pair in unspecified order.
func (t *IIDTable) IIDs(fn func(iid addr.IID, r IIDView) bool) {
	t.IIDSlotsRange(0, len(t.iidIdx), fn)
}

// EUI64IIDs iterates only EUI-64 IIDs (those with /64 tracking). EUI-64
// IIDs are always promoted, so this walks the promoted slab directly.
func (t *IIDTable) EUI64IIDs(fn func(iid addr.IID, r IIDView) bool) {
	t.EUI64IIDsRange(0, int(t.iidRecs.n), fn)
}
