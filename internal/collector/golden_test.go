package collector

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"testing"

	"hitlist6/internal/addr"
)

// goldenChecksum is the SHA-256 of the canonical encoding of the stream
// below, recorded against the seed's pointer-per-record layout. The
// canonical encoding is the collector's on-the-wire ground truth: any
// internal re-layout (the flat record slabs, the span-run slab) must
// reproduce it byte for byte, or every stored corpus fingerprint in the
// wild silently changes meaning.
const goldenChecksum = "dacb26a587b3fb747ed8e805e2a1462cbce86695d2ba510c37e2ecae9c6b72eb"

// splitmix64 is a tiny self-contained PRNG so the golden stream never
// depends on the standard library's generator internals.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// goldenStream generates a fixed, implementation-independent event
// stream exercising every record shape: repeated addresses, out-of-order
// timestamps, EUI-64 IIDs renumbering across /64s, non-EUI-64 IIDs
// shared by several addresses, and server indices at and beyond the cap.
func goldenStream() (addrs []addr.Addr, times []int64, servers []int) {
	const n = 5000
	base := int64(1643068800) // 25 Jan 2022, the study origin
	state := uint64(0x5eed)
	macs := make([]addr.MAC, 16)
	for i := range macs {
		v := splitmix64(&state)
		macs[i] = addr.MAC{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24), byte(v >> 32), byte(v >> 40)}
	}
	for i := 0; i < n; i++ {
		r := splitmix64(&state)
		hi := 0x2001_0db8_0000_0000 | (r>>32)&0xffff<<16 | r&0x7
		var a addr.Addr
		switch i % 5 {
		case 0, 1:
			// Random IID, small address pool to force repeats.
			a = addr.FromParts(hi, splitmix64(&state)%512)
		case 2:
			// EUI-64: one of 16 MACs wandering across /64s.
			mac := macs[r%16]
			a = addr.FromParts(hi, uint64(addr.EUI64FromMAC(mac)))
		case 3:
			// Same IID in many /64s without EUI-64 structure.
			a = addr.FromParts(hi, 0xdead_beef_0000_0001)
		default:
			a = addr.FromParts(hi, splitmix64(&state))
		}
		// Timestamps jitter backwards and forwards around a moving clock.
		ts := base + int64(i)*37 - int64(r%4096)
		server := int(r % 40) // exercises saturation above MaxServers
		if r%17 == 0 {
			server = -1 // unattributed
		}
		addrs = append(addrs, a)
		times = append(times, ts)
		servers = append(servers, server)
	}
	return
}

// TestCanonicalChecksumGolden pins WriteCanonical/Checksum output across
// storage-layout changes: the same event stream must hash to the value
// recorded against the seed layout.
func TestCanonicalChecksumGolden(t *testing.T) {
	addrs, times, servers := goldenStream()
	c := New()
	for i := range addrs {
		c.ObserveUnix(addrs[i], times[i], servers[i])
	}
	sum := c.Checksum()
	if got := hex.EncodeToString(sum[:]); got != goldenChecksum {
		t.Fatalf("canonical checksum drifted:\n got  %s\n want %s", got, goldenChecksum)
	}
}

// iidSlotOrderSum is the FNV-64a sum of the IID values, big-endian, in
// IIDs() order of the IIDTable over collectorBenchStream, and the same
// for a collector fed one sighting at a time, for one fed the stream's
// two halves as two shards (the first moved into the empty collector,
// the second folded in), and for one fed the stream backwards. The
// three slab orders differ, but the table is folded from the records in
// canonical order, so it is a function of the record set alone. Figure
// 2b's fold partitions the table by slot but only counts, so slot order
// cannot reach the report; the sum pins that the table is
// deterministic. The address table's slot order is not pinned.
const iidSlotOrderSum = 0xee9a46988be482b6

func TestIIDSlotOrderGolden(t *testing.T) {
	events, _ := collectorBenchStream()
	serial, sharded, backwards := New(), New(), New()
	part := New()
	for i, ev := range events {
		serial.ObserveUnix(ev.a, ev.ts, ev.server)
		part.ObserveUnix(ev.a, ev.ts, ev.server)
		if i == len(events)/2 || i == len(events)-1 {
			sharded.Absorb(part)
			part = New()
		}
		ev = events[len(events)-1-i]
		backwards.ObserveUnix(ev.a, ev.ts, ev.server)
	}
	for i, c := range []*Collector{serial, sharded, backwards} {
		h := fnv.New64a()
		var w [8]byte
		c.TakeRecords().IIDTable().IIDs(func(iid addr.IID, _ IIDView) bool {
			binary.BigEndian.PutUint64(w[:], uint64(iid))
			h.Write(w[:])
			return true
		})
		if got := h.Sum64(); got != iidSlotOrderSum {
			t.Errorf("build %d: IID slot order sum %#x, want %#x", i, got, uint64(iidSlotOrderSum))
		}
	}
}

// goldenDeltaSum is the SHA-256 of the version-2 delta a serial
// collector cuts from goldenStream() — full checkpoint at half the
// stream, delta at the end (deltaFixture). With testdata/golden.v2.snap
// and TestTierFileGolden it makes "byte-identical" a test for all three
// on-disk formats.
const goldenDeltaSum = "0bb7fe6420af1d7cc391e7093e1dfc5e9e37735c25eea93e72160bd1be386f46"

func TestDeltaGolden(t *testing.T) {
	_, delta, _ := deltaFixture(t)
	sum := sha256.Sum256(delta)
	if got := hex.EncodeToString(sum[:]); got != goldenDeltaSum {
		t.Fatalf("delta bytes drifted:\n got  %s\n want %s", got, goldenDeltaSum)
	}
}
