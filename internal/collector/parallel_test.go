package collector

import (
	"math/rand"
	"testing"
	"time"

	"hitlist6/internal/addr"
)

// buildParallelTestCollector observes a mixed stream: random singleton
// IIDs, colliding IIDs across /64s (promotions) and EUI-64 devices with
// multi-/64 spans — every record shape the range iterators must cover.
func buildParallelTestCollector(t testing.TB, n int) *Collector {
	t.Helper()
	c := New()
	rng := rand.New(rand.NewSource(99))
	base := time.Date(2022, 1, 25, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		ts := base.Add(time.Duration(rng.Intn(3600*24*30)) * time.Second)
		hi := 0x20010db8_00000000 | uint64(rng.Intn(256))<<16
		var lo uint64
		switch i % 5 {
		case 0, 1, 2: // random singleton
			lo = rng.Uint64()
		case 3: // shared IID across /64s: forces promotion
			lo = uint64(rng.Intn(8)) + 1
		case 4: // EUI-64 (ff:fe marker), tracked spans
			mac := uint64(rng.Intn(512))
			lo = (mac&0xffffff)<<40 | 0xfffe<<24 | (mac >> 24 & 0xffffff) | 0x02000000_00000000
		}
		c.Observe(addr.FromParts(hi, lo), ts, rng.Intn(4))
	}
	return c
}

// TestRangeIteratorsCoverSerialOrder asserts that stitching the range
// iterators over a partition reproduces the serial iterators exactly —
// same elements, same order — for awkward split points.
func TestRangeIteratorsCoverSerialOrder(t *testing.T) {
	c := buildParallelTestCollector(t, 20000)

	splits := func(n int) [][2]int {
		cuts := []int{0, 1, n / 3, n / 2, n - 1, n}
		var out [][2]int
		prev := 0
		for _, cut := range cuts {
			if cut < prev {
				continue
			}
			if cut > prev {
				out = append(out, [2]int{prev, cut})
			}
			prev = cut
		}
		if prev < n {
			out = append(out, [2]int{prev, n})
		}
		return out
	}

	// Addresses.
	var serialA, rangedA []addr.Addr
	c.AddrsRange(0, c.NumAddrs(), func(a addr.Addr, _ AddrRecord) bool { serialA = append(serialA, a); return true })
	for _, r := range splits(c.NumAddrs()) {
		c.AddrsRange(r[0], r[1], func(a addr.Addr, _ AddrRecord) bool {
			rangedA = append(rangedA, a)
			return true
		})
	}
	if len(serialA) != len(rangedA) {
		t.Fatalf("addrs: %d serial vs %d ranged", len(serialA), len(rangedA))
	}
	for i := range serialA {
		if serialA[i] != rangedA[i] {
			t.Fatalf("addrs diverge at %d", i)
		}
	}

	// IIDs (slot order).
	tb := c.CopyRecords().IIDTable()
	var serialI, rangedI []addr.IID
	tb.IIDs(func(iid addr.IID, _ IIDView) bool { serialI = append(serialI, iid); return true })
	for _, r := range splits(tb.NumIIDSlots()) {
		tb.IIDSlotsRange(r[0], r[1], func(iid addr.IID, _ IIDView) bool {
			rangedI = append(rangedI, iid)
			return true
		})
	}
	if len(serialI) != len(rangedI) {
		t.Fatalf("iids: %d serial vs %d ranged", len(serialI), len(rangedI))
	}
	for i := range serialI {
		if serialI[i] != rangedI[i] {
			t.Fatalf("iids diverge at %d", i)
		}
	}

	// EUI-64 IIDs (promoted slab order), with span sums to check the
	// views resolve identically.
	type euiRow struct {
		iid   addr.IID
		spans int
	}
	var serialE, rangedE []euiRow
	tb.EUI64IIDs(func(iid addr.IID, r IIDView) bool {
		serialE = append(serialE, euiRow{iid, r.NumP64s()})
		return true
	})
	for _, r := range splits(tb.NumPromotedIIDs()) {
		tb.EUI64IIDsRange(r[0], r[1], func(iid addr.IID, v IIDView) bool {
			rangedE = append(rangedE, euiRow{iid, v.NumP64s()})
			return true
		})
	}
	if len(serialE) == 0 {
		t.Fatal("test stream produced no EUI-64 IIDs")
	}
	if len(serialE) != len(rangedE) {
		t.Fatalf("eui64: %d serial vs %d ranged", len(serialE), len(rangedE))
	}
	for i := range serialE {
		if serialE[i] != rangedE[i] {
			t.Fatalf("eui64 diverge at %d", i)
		}
	}
}

// TestRangeIteratorsClamp checks out-of-bounds ranges are clamped, not
// panicking or double-visiting.
func TestRangeIteratorsClamp(t *testing.T) {
	c := buildParallelTestCollector(t, 500)
	n := 0
	c.AddrsRange(-5, c.NumAddrs()+100, func(addr.Addr, AddrRecord) bool { n++; return true })
	if n != c.NumAddrs() {
		t.Fatalf("clamped address range visited %d of %d", n, c.NumAddrs())
	}
	n = 0
	tb := c.CopyRecords().IIDTable()
	tb.IIDSlotsRange(-1, tb.NumIIDSlots()+7, func(addr.IID, IIDView) bool { n++; return true })
	if n != tb.NumIIDs() {
		t.Fatalf("clamped IID range visited %d of %d", n, tb.NumIIDs())
	}
	n = 0
	tb.EUI64IIDsRange(-1, tb.NumPromotedIIDs()+7, func(addr.IID, IIDView) bool { n++; return true })
	stop := 0
	tb.EUI64IIDsRange(0, tb.NumPromotedIIDs(), func(addr.IID, IIDView) bool { stop++; return false })
	if stop != 1 {
		t.Fatalf("early stop visited %d", stop)
	}
	if n == 0 {
		t.Fatal("clamped EUI-64 range visited nothing")
	}
	var set IIDSet
	set.AddRange(c, -3, 7)
	set.AddRange(c, 7, c.NumAddrs()+9)
	set.AddRange(c, 9, 2)
	if set.Len() != tb.NumIIDs() {
		t.Fatalf("IIDSet over clamped ranges holds %d of %d IIDs", set.Len(), tb.NumIIDs())
	}
}
