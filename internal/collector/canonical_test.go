package collector

import (
	"encoding/binary"
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
	wantAddrs := c.AddressList()
	sort.Slice(wantAddrs, func(i, j int) bool { return wantAddrs[i].Less(wantAddrs[j]) })
	var walked []addr.Addr
	c.AddrsCanonical(func(a addr.Addr, r AddrRecord) bool {
		if want, _ := c.Get(a); r != want {
			t.Fatalf("the canonical walk hands out %+v for %v, the collector holds %+v", r, a, want)
		}
		walked = append(walked, a)
		return true
	})
	if !slices.Equal(walked, wantAddrs) {
		t.Fatalf("the canonical walk over %d addrs diverges from sort by Addr.Less", len(wantAddrs))
	}
	if got := c.SortedAddrs(); cap(got) != c.NumAddrs() || !slices.Equal(got, walked) {
		t.Fatalf("SortedAddrs (%d of cap %d) diverges from the AddrsCanonical walk (%d)", len(got), cap(got), len(walked))
	}
	if recs := c.CopyRecords(); recs.NumAddrs() != c.NumAddrs() || recs.TotalObservations() != c.TotalObservations() {
		t.Fatalf("CopyRecords holds %d addrs / %d observations, the collector %d / %d",
			recs.NumAddrs(), recs.TotalObservations(), c.NumAddrs(), c.TotalObservations())
	}

	tb := c.IIDTable()
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
