package collector

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"hitlist6/internal/addr"
)

// The fuzz layer pins the durable-corpus contract from both directions.
// FuzzSnapshotRoundTrip drives arbitrary observe streams through
// snapshot → restore and requires an equal Checksum; FuzzOpenSnapshot
// feeds arbitrary bytes — seeded with files of both format versions, so
// coverage starts inside the real format — to OpenSnapshot and requires
// an error or a faithful corpus, never a panic. Run them continuously
// with:
//
//	go test ./internal/collector -run '^$' -fuzz '^FuzzSnapshotRoundTrip$' -fuzztime 30s
//	go test ./internal/collector -run '^$' -fuzz '^FuzzOpenSnapshot$' -fuzztime 30s -fuzzminimizetime 2s
//
// (The second takes whole files: without a minimize limit the engine
// spends a minute per worker failing to shrink the first damaged copy
// of a seed file it finds interesting.)

// decodeObserveStream turns fuzz bytes into an observe stream: each
// 13-byte chunk is (hi-seed, lo-seed, ts-delta, server). The seeds go
// through splitmix so a byte-flipping fuzzer still reaches diverse
// addresses, while short inputs stay meaningful.
func decodeObserveStream(data []byte) (addrs []addr.Addr, times []int64, servers []int) {
	const rec = 13
	base := int64(1643068800)
	for off := 0; off+rec <= len(data) && len(addrs) < 4096; off += rec {
		hiSeed := uint64(binary.LittleEndian.Uint32(data[off:]))
		loSeed := uint64(binary.LittleEndian.Uint32(data[off+4:]))
		dt := int64(int32(binary.LittleEndian.Uint32(data[off+8:])))
		server := int(int8(data[off+12]))

		// A few address shapes: clustered /64s, EUI-64 IIDs, shared IIDs.
		var a addr.Addr
		hi := 0x20010db8_00000000 | mix64(hiSeed)&0xffff_0007
		switch loSeed % 4 {
		case 0:
			a = addr.FromParts(hi, mix64(loSeed)%512)
		case 1:
			mac := addr.MAC{byte(loSeed), byte(loSeed >> 8), byte(loSeed >> 16), 0x44, 0x55, 0x66}
			a = addr.FromParts(hi, uint64(addr.EUI64FromMAC(mac)))
		case 2:
			a = addr.FromParts(hi, 0xdead_beef_0000_0001)
		default:
			a = addr.FromParts(hi, mix64(loSeed))
		}
		addrs = append(addrs, a)
		times = append(times, base+dt)
		servers = append(servers, server%40)
	}
	return
}

func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x00\x00\x00\x02\x00\x00\x00\x10\x00\x00\x00\x05"))
	// A structured seed: several records of each shape.
	seed := make([]byte, 0, 13*32)
	for i := 0; i < 32; i++ {
		var rec [13]byte
		binary.LittleEndian.PutUint32(rec[0:], uint32(i*7))
		binary.LittleEndian.PutUint32(rec[4:], uint32(i))
		binary.LittleEndian.PutUint32(rec[8:], uint32(i*100003))
		rec[12] = byte(i)
		seed = append(seed, rec[:]...)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		addrs, times, servers := decodeObserveStream(data)
		c := New()
		for i := range addrs {
			c.ObserveUnix(addrs[i], times[i], servers[i])
		}
		var buf bytes.Buffer
		if err := c.Snapshot(&buf); err != nil {
			t.Fatalf("Snapshot of a live collector failed: %v", err)
		}
		got, err := OpenSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("restore of a fresh snapshot failed: %v", err)
		}
		sameCorpus(t, got, c)
	})
}

func FuzzOpenSnapshot(f *testing.F) {
	// Seed with the real format in both versions — the version-1 chain
	// fixture's base, a fresh version-2 snapshot of a few hundred events
	// — plus a tiny snapshot, an empty one, and a spread of near-valid
	// husks. The golden fixtures, pinned by TestSnapshotGoldenFixture,
	// stay out: every execution and every minimization step costs the
	// length of the input.
	v1, err := os.ReadFile(v1ChainBase)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	addrs, times, servers := goldenStream()
	some := New()
	feedGolden(some, addrs, times, servers, 0, 300)
	var v2 bytes.Buffer
	if err := some.Snapshot(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	var empty bytes.Buffer
	if err := New().Snapshot(&empty); err == nil {
		f.Add(empty.Bytes())
	}
	tiny := New()
	tiny.ObserveUnix(addr.MustParse("2001:db8::1"), 1650000000, 1)
	tiny.ObserveUnix(addr.FromParts(addr.MustParse("2001:db8:5::").Hi(), uint64(addr.EUI64FromMAC(addr.MAC{1, 2, 3, 4, 5, 6}))), 1650000500, 2)
	var tinyBuf bytes.Buffer
	if err := tiny.Snapshot(&tinyBuf); err == nil {
		f.Add(tinyBuf.Bytes())
	}
	f.Add([]byte("h6corps1"))
	f.Add([]byte("h6corps1\x00\x00\x00\x01"))
	f.Add([]byte("h6corps1\x00\x00\x00\x02"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := OpenSnapshot(bytes.NewReader(data))
		if err != nil {
			if c != nil {
				t.Fatalf("error return carries a non-nil collector")
			}
			return
		}
		// Whatever restored must be internally consistent: every read API
		// walk must terminate, and a re-snapshot must round-trip to the
		// same corpus (i.e. nothing corrupt was silently accepted).
		var buf bytes.Buffer
		if err := c.Snapshot(&buf); err != nil {
			t.Fatalf("restored collector cannot re-snapshot: %v", err)
		}
		again, err := OpenSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-snapshot of restored collector does not restore: %v", err)
		}
		sameCorpus(t, again, c)
	})
}
