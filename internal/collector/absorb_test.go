package collector

import (
	"testing"
	"time"

	"hitlist6/internal/addr"
)

// The Absorb tests pin the ownership-taking merge to the Scalable-
// Commutativity bar the record-by-record Merge already meets: for any
// split of one observation stream into donor and destination — key
// ranges colliding or not, either side empty or not — Absorb's result
// must be byte-equivalent (canonical Checksum) to Merge's and to a
// serial single-collector run.

// buildFromStream folds a slice of the golden stream into a fresh
// collector.
func buildFromStream(addrs []addr.Addr, times []int64, servers []int, lo, hi int) *Collector {
	c := New()
	for i := lo; i < hi; i++ {
		c.ObserveUnix(addrs[i], times[i], servers[i])
	}
	return c
}

// absorbCase checks Absorb(dst, donor) against Merge and serial for one
// donor/destination split.
func absorbCase(t *testing.T, name string, mkDst, mkDonor func() *Collector, serial *Collector) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		want := serial.Checksum()

		viaMerge := mkDst()
		viaMerge.Merge(mkDonor())
		if got := viaMerge.Checksum(); got != want {
			t.Fatalf("record-by-record Merge checksum differs from serial")
		}

		viaAbsorb := mkDst()
		donor := mkDonor()
		viaAbsorb.Absorb(donor)
		if got := viaAbsorb.Checksum(); got != want {
			t.Fatalf("Absorb checksum differs from serial")
		}
		if donor.NumAddrs() != 0 || donor.TotalObservations() != 0 {
			t.Fatalf("Absorb left state in the donor")
		}

		// The absorbed collector must stay fully writable: replay the
		// donor's events again and compare against the serial double-count.
		// (Covers index-table consistency after the steal.)
		probe := mkDonor()
		probe.AddrsRange(0, probe.NumAddrs(), func(a addr.Addr, r AddrRecord) bool {
			viaAbsorb.ObserveUnix(a, r.First, 0)
			return true
		})
		if viaAbsorb.NumAddrs() != serial.NumAddrs() {
			t.Fatalf("post-absorb observes grew the address set: %d vs %d",
				viaAbsorb.NumAddrs(), serial.NumAddrs())
		}
	})
}

func TestAbsorbEquivalence(t *testing.T) {
	addrs, times, servers := goldenStream()
	n := len(addrs)
	serial := buildFromStream(addrs, times, servers, 0, n)

	// Colliding key ranges: the golden stream's small address pool makes
	// any contiguous split share many addresses and IIDs across the cut.
	absorbCase(t, "colliding halves",
		func() *Collector { return buildFromStream(addrs, times, servers, 0, n/2) },
		func() *Collector { return buildFromStream(addrs, times, servers, n/2, n) },
		serial)

	// Empty destination: the wholesale-steal path.
	absorbCase(t, "into empty",
		New,
		func() *Collector { return buildFromStream(addrs, times, servers, 0, n) },
		serial)

	// Empty donor.
	absorbCase(t, "empty donor",
		func() *Collector { return buildFromStream(addrs, times, servers, 0, n) },
		New,
		serial)

	// Address-hash partitioning, the ingest shard shape: addresses never
	// collide across parts, but IIDs may (the golden stream's shared
	// 0xdeadbeef IID spans /64s in both halves), and the checksum's IID
	// half must fold them across the cut.
	hashFilter := func(want uint64) func() *Collector {
		return func() *Collector {
			c := New()
			for i := range addrs {
				if addrs[i].Hash64()%2 == want {
					c.ObserveUnix(addrs[i], times[i], servers[i])
				}
			}
			return c
		}
	}
	absorbCase(t, "addr-hash shards", hashFilter(0), hashFilter(1), serial)

	// IID-parity partitioning: an address's shard is a function of its
	// IID, so both the address and IID key ranges are disjoint by
	// construction: Merge with every donor key new to the destination.
	iidFilter := func(want uint64) func() *Collector {
		return func() *Collector {
			c := New()
			for i := range addrs {
				if uint64(addrs[i].IID())%2 == want {
					c.ObserveUnix(addrs[i], times[i], servers[i])
				}
			}
			return c
		}
	}
	absorbCase(t, "disjoint iid ranges", iidFilter(0), iidFilter(1), serial)
}

// TestAbsorbChainsManyDonors mirrors the Store's real call pattern: a
// long sequence of Absorbs — disjoint shard parts first, then colliding
// re-deliveries — must stay equivalent to serial throughout, across
// chunk-boundary crossings (donors larger than one chunk).
func TestAbsorbChainsManyDonors(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk stream in -short mode")
	}
	// A stream long enough that slabs cross the first chunk boundary
	// (chunkSize records) while absorbing.
	const n = 3 * chunkSize
	state := uint64(0xabcdef)
	addrs := make([]addr.Addr, n)
	times := make([]int64, n)
	for i := range addrs {
		r := splitmix64(&state)
		addrs[i] = addr.FromParts(0x20010db8_00000000|r&0xffff, splitmix64(&state)%uint64(n))
		times[i] = 1643068800 + int64(i%100000)
	}

	serial := New()
	for i := range addrs {
		serial.ObserveUnix(addrs[i], times[i], i%9)
	}

	// First wave partitions by IID value, so every Absorb in the chain
	// is fully disjoint: one steal, then Merges that only insert, growing
	// the slabs across chunk boundaries.
	const shards = 7
	merged := New()
	for s := 0; s < shards; s++ {
		part := New()
		for i := range addrs {
			if uint64(addrs[i].IID())%shards == uint64(s) {
				part.ObserveUnix(addrs[i], times[i], i%9)
			}
		}
		merged.Absorb(part)
	}
	if merged.Checksum() != serial.Checksum() {
		t.Fatalf("disjoint absorb chain diverged from serial")
	}

	// Second wave: re-deliver every shard's events (colliding path) and
	// compare against a serial double run.
	serial2 := New()
	for round := 0; round < 2; round++ {
		for i := range addrs {
			serial2.ObserveUnix(addrs[i], times[i], i%9)
		}
	}
	for s := 0; s < shards; s++ {
		part := New()
		for i := range addrs {
			if uint64(addrs[i].IID())%shards == uint64(s) {
				part.ObserveUnix(addrs[i], times[i], i%9)
			}
		}
		merged.Absorb(part)
	}
	if merged.Checksum() != serial2.Checksum() {
		t.Fatalf("colliding absorb chain diverged from serial double run")
	}
}

// TestMergeSlotOrderPathology is the regression test for a quadratic
// blowup this PR found latent in Merge: iterating the donor's IID
// table in slot order means inserting into the destination in
// ascending hash-home order, and when both tables share a mask with
// the destination near its load threshold, that sweep welds existing
// probe runs into a single run covering a third of the table —
// lookups behind the front degrade to O(table), and merging two
// ~600k-record halves took minutes instead of milliseconds. Merge now
// processes promoted entries in slab order and singletons in
// ref-sorted order (hash-uncorrelated); this test merges exactly the
// shape that triggered the pathology under a wall-clock ceiling ~50x
// above the fixed cost and ~100x below the broken one.
func TestMergeSlotOrderPathology(t *testing.T) {
	if testing.Short() {
		t.Skip("million-record merge in -short mode")
	}
	events, _ := collectorBenchStream()
	build := func(part uint64) *Collector {
		c := New()
		for _, ev := range events {
			if ev.a.Hash64()%2 == part {
				c.ObserveUnix(ev.a, ev.ts, ev.server)
			}
		}
		return c
	}
	dst, donor := build(0), build(1)
	done := make(chan struct{})
	go func() {
		dst.Merge(donor)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Merge of hash-partitioned halves did not finish in 60s: slot-order probe pathology is back")
	}

	serial := New()
	for _, ev := range events {
		serial.ObserveUnix(ev.a, ev.ts, ev.server)
	}
	if dst.Checksum() != serial.Checksum() {
		t.Fatal("order-decorrelated merge changed the result")
	}
}
