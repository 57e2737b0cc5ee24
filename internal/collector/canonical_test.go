package collector

import (
	"encoding/binary"
	"iter"
	"slices"
	"sort"
	"testing"

	"hitlist6/internal/addr"
)

// checkCanonicalOrder is the kernels' differential: the IID radix order
// over the addresses' raw IIDs (duplicates allowed — the sort must be
// stable), and through a collector built from the addresses the address
// order against a plain sort by Addr.Less and the IID order against a
// plain sort by IID.
func checkCanonicalOrder(t *testing.T, addrs []addr.Addr) {
	t.Helper()
	keys := make([]iidKey, len(addrs))
	for i, a := range addrs {
		keys[i] = iidKey{a.Lo(), uint32(i)}
	}
	want := slices.Clone(keys)
	sort.SliceStable(want, func(i, j int) bool { return want[i].iid < want[j].iid })
	if got := sortIIDKeys(keys, make([]iidKey, len(keys))); !slices.Equal(got, want) {
		t.Fatalf("sortIIDKeys over %d keys diverges from a stable sort by IID", len(addrs))
	}

	c := New()
	for i, a := range addrs {
		c.ObserveUnix(a, int64(1_600_000_000+i), i%MaxServers)
	}
	wantAddrs := slices.Clone(addrs)
	sort.Slice(wantAddrs, func(i, j int) bool { return wantAddrs[i].Less(wantAddrs[j]) })
	wantAddrs = slices.Compact(wantAddrs)
	var walked []addr.Addr
	c.CanonicalOrder()(func(a addr.Addr, r AddrRecord) bool {
		if want, _ := c.Get(a); r != want {
			t.Fatalf("the canonical walk hands out %+v for %v, the collector holds %+v", r, a, want)
		}
		walked = append(walked, a)
		return true
	})
	if !slices.Equal(walked, wantAddrs) {
		t.Fatalf("the canonical walk over %d addrs diverges from sort by Addr.Less", len(wantAddrs))
	}
	copied := c.CopyRecords()
	if copied.NumAddrs() != c.NumAddrs() || copied.TotalObservations() != c.TotalObservations() {
		t.Fatalf("CopyRecords holds %d addrs / %d observations, the collector %d / %d",
			copied.NumAddrs(), copied.TotalObservations(), c.NumAddrs(), c.TotalObservations())
	}

	tb := c.CopyRecords().IIDTable()
	var wantIIDs []addr.IID
	tb.IIDs(func(iid addr.IID, _ IIDView) bool { wantIIDs = append(wantIIDs, iid); return true })
	slices.Sort(wantIIDs)
	var gotIIDs []addr.IID
	for _, k := range tb.sortedIIDRefs() {
		if tb.iidKeyOf(k.ref) != addr.IID(k.iid) {
			t.Fatalf("IID key %+v does not match its reference", k)
		}
		gotIIDs = append(gotIIDs, addr.IID(k.iid))
	}
	if !slices.Equal(gotIIDs, wantIIDs) {
		t.Fatalf("sortedIIDRefs over %d IIDs diverges from sort by IID", len(wantIIDs))
	}

	// The move is the copy sorted: the same records in the same order,
	// the same total, the key column capped at its length; and it leaves
	// the collector empty.
	total, n := c.TotalObservations(), c.NumAddrs()
	taken := c.TakeRecords()
	if c.NumAddrs() != 0 || c.TotalObservations() != 0 || c.MemoryFootprint() != 0 {
		t.Fatalf("after TakeRecords the collector holds %d addrs / %d observations in %d B, want none",
			c.NumAddrs(), c.TotalObservations(), c.MemoryFootprint())
	}
	if taken.NumAddrs() != n || taken.TotalObservations() != total {
		t.Fatalf("TakeRecords holds %d addrs / %d observations, the collector held %d / %d",
			taken.NumAddrs(), taken.TotalObservations(), n, total)
	}
	type pair struct {
		a addr.Addr
		r AddrRecord
	}
	collect := func(seq iter.Seq2[addr.Addr, AddrRecord]) (out []pair) {
		for a, r := range seq {
			out = append(out, pair{a, r})
		}
		return out
	}
	if got, want := collect(taken.CanonicalOrder()), collect(copied.CanonicalOrder()); !slices.Equal(got, want) {
		t.Fatalf("TakeRecords (%d records) diverges from CopyRecords + CanonicalOrder (%d)", len(got), len(want))
	}
	var ranged []addr.Addr
	taken.AddrsRange(0, n, func(a addr.Addr, _ AddrRecord) bool { ranged = append(ranged, a); return true })
	if keys := taken.Keys(); cap(keys) != n || !slices.Equal(keys, walked) || !slices.Equal(ranged, walked) {
		t.Fatalf("the moved key column (%d of cap %d) or its range walk (%d) diverges from the canonical walk (%d)",
			len(keys), cap(keys), len(ranged), len(walked))
	}
}

// TestCanonicalOrderDifferential runs the differential over the key
// sets a byte-wise radix sort can get wrong: degenerate sizes, digits
// that never vary (skipped passes), a single varying digit at either
// end, a digit most keys share, the extreme values, and more keys than
// one 16-bit digit counts.
func TestCanonicalOrderDifferential(t *testing.T) {
	state := uint64(0xc0ffee)
	rnd := func() uint64 { return splitmix64(&state) }
	gen := func(n int, f func(i int) addr.Addr) []addr.Addr {
		out := make([]addr.Addr, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	zero, ones := addr.Addr{}, addr.FromParts(^uint64(0), ^uint64(0))
	for _, tc := range []struct {
		name  string
		addrs []addr.Addr
	}{
		{"n=0", nil},
		{"n=1", []addr.Addr{addr.FromParts(0x20010db8_00000000, 7)}},
		{"n=2 descending", []addr.Addr{ones, zero}},
		{"n=2 equal", []addr.Addr{ones, ones}},
		{"shared hi", gen(3000, func(int) addr.Addr { return addr.FromParts(0x20010db8_00000001, rnd()) })},
		{"shared lo", gen(3000, func(int) addr.Addr { return addr.FromParts(rnd(), 0xdead_beef_0000_0001) })},
		{"byte 0 only", gen(256, func(i int) addr.Addr { return addr.FromParts(uint64(255-i)<<56|0xdb8, 42) })},
		{"byte 15 only", gen(256, func(i int) addr.Addr { return addr.FromParts(0x20010db8_00000000, uint64(255-i)) })},
		{"extremes", append(gen(500, func(int) addr.Addr { return addr.FromParts(rnd(), rnd()) }), ones, zero, ones, zero)},
		{"repeats", gen(5000, func(int) addr.Addr { return addr.FromParts(rnd()%7, rnd()%11) })},
		{"skewed digit", gen(3000, func(i int) addr.Addr {
			hi := uint64(0x20010db8_00000000)
			if i%10 == 9 {
				hi |= 1 + rnd()%4096
			}
			return addr.FromParts(hi, rnd())
		})},
		{"70k", gen(70_000, func(int) addr.Addr { return addr.FromParts(0x20010db8_00000000|rnd()%4096, rnd()) })},
	} {
		t.Run(tc.name, func(t *testing.T) { checkCanonicalOrder(t, tc.addrs) })
	}
}

// FuzzCanonicalOrder feeds the differential arbitrary key sets: the
// input is read as consecutive 16-byte addresses.
func FuzzCanonicalOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 48))
	seed := make([]byte, 0, 16*64)
	for i := 0; i < 64; i++ {
		seed = binary.BigEndian.AppendUint64(seed, uint64(i%3)<<uint(i))
		seed = binary.BigEndian.AppendUint64(seed, ^uint64(i)<<uint(i%5*13))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		addrs := make([]addr.Addr, len(data)/16)
		for i := range addrs {
			copy(addrs[i][:], data[16*i:])
		}
		checkCanonicalOrder(t, addrs)
	})
}
