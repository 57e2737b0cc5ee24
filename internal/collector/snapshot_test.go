package collector

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hitlist6/internal/addr"
)

// updateGolden regenerates testdata/golden.snap from the golden stream:
//
//	go test ./internal/collector -run TestSnapshotGoldenFixture -update
//
// Only legitimate when the snapshot format version is bumped — the
// fixture pins version 1's exact bytes as readable forever.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.snap")

const goldenSnapshotPath = "testdata/golden.snap"

// goldenCollector builds the collector behind the golden checksum.
func goldenCollector(t testing.TB) *Collector {
	t.Helper()
	addrs, times, servers := goldenStream()
	c := New()
	for i := range addrs {
		c.ObserveUnix(addrs[i], times[i], servers[i])
	}
	return c
}

// TestSnapshotRoundTrip is the tentpole invariant: snapshot → restore
// reproduces the canonical encoding byte for byte, along with every
// count and the exact slab layout the restored indexes hang off.
func TestSnapshotRoundTrip(t *testing.T) {
	c := goldenCollector(t)
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	got, err := OpenSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	if got.Checksum() != c.Checksum() {
		t.Fatalf("restored checksum differs from original")
	}
	if got.NumAddrs() != c.NumAddrs() || got.NumIIDs() != c.NumIIDs() ||
		got.TotalObservations() != c.TotalObservations() ||
		got.Unique48s() != c.Unique48s() || got.Unique64s() != c.Unique64s() {
		t.Fatalf("restored counts differ: addrs %d/%d iids %d/%d total %d/%d",
			got.NumAddrs(), c.NumAddrs(), got.NumIIDs(), c.NumIIDs(),
			got.TotalObservations(), c.TotalObservations())
	}
	// A restored collector must keep accepting observations and merges.
	a := addr.MustParse("2001:db8::1234")
	got.ObserveUnix(a, 1700000000, 3)
	if r, ok := got.Get(a); !ok || r.Count != 1 {
		t.Fatalf("restored collector rejects new observations: %+v ok=%v", r, ok)
	}
}

// TestSnapshotRoundTripEmpty covers the degenerate corpus.
func TestSnapshotRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New().Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	got, err := OpenSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	if got.NumAddrs() != 0 || got.NumIIDs() != 0 || got.TotalObservations() != 0 {
		t.Fatalf("restored empty corpus is not empty")
	}
	if got.Checksum() != New().Checksum() {
		t.Fatalf("empty round trip checksum differs")
	}
}

// TestSnapshotComposes verifies the stream is self-delimiting: two
// snapshots written back to back on one writer restore independently
// from one reader — OpenSnapshot reads exactly the stream's own bytes.
func TestSnapshotComposes(t *testing.T) {
	c1 := goldenCollector(t)
	c2 := New()
	c2.ObserveUnix(addr.MustParse("2001:db8:beef::1"), 1650000000, 2)
	var buf bytes.Buffer
	if err := c1.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c2.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	got1, err := OpenSnapshot(r)
	if err != nil {
		t.Fatalf("first embedded snapshot: %v", err)
	}
	got2, err := OpenSnapshot(r)
	if err != nil {
		t.Fatalf("second embedded snapshot: %v", err)
	}
	if got1.Checksum() != c1.Checksum() || got2.Checksum() != c2.Checksum() {
		t.Fatalf("embedded snapshots drifted")
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left unread after both snapshots", r.Len())
	}
}

// TestSnapshotGoldenFixture pins the version-1 format from both sides:
// the checked-in fixture must keep restoring to the golden checksum
// regardless of any future reader or layout change, and a serial
// collector fed the golden stream must keep writing exactly the
// fixture's bytes. (Snapshots encode slab order, so the bytes are a
// function of the observation order — fixed here — not of the corpus
// alone.)
func TestSnapshotGoldenFixture(t *testing.T) {
	if *updateGolden {
		c := goldenCollector(t)
		var buf bytes.Buffer
		if err := c.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenSnapshotPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSnapshotPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenSnapshotPath, buf.Len())
	}
	raw, err := os.ReadFile(goldenSnapshotPath)
	if err != nil {
		t.Fatalf("golden fixture missing (regenerate with -update): %v", err)
	}
	c, err := OpenSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("golden fixture no longer restores: %v", err)
	}
	sum := c.Checksum()
	if got := hex.EncodeToString(sum[:]); got != goldenChecksum {
		t.Fatalf("golden fixture restores to checksum %s, want %s", got, goldenChecksum)
	}
	var fresh bytes.Buffer
	if err := goldenCollector(t).Snapshot(&fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), raw) {
		t.Fatalf("snapshot of the golden stream is no longer the fixture's bytes (%d vs %d)", fresh.Len(), len(raw))
	}
}

// sectionBoundaries parses a snapshot's framing and returns every
// structural offset: after the stream header, after each section
// header, each section payload, each CRC, and before the end marker.
func sectionBoundaries(t *testing.T, raw []byte) []int {
	t.Helper()
	bounds := []int{0, 8, 12} // mid-magic, post-magic, post-version
	off := 12
	for {
		if off+12 > len(raw) {
			t.Fatalf("snapshot framing runs off the end at %d", off)
		}
		id := binary.BigEndian.Uint32(raw[off:])
		size := binary.BigEndian.Uint64(raw[off+4:])
		bounds = append(bounds, off, off+12)
		off += 12
		if id == 0 {
			if off != len(raw) {
				t.Fatalf("trailing bytes after end marker: %d != %d", off, len(raw))
			}
			return bounds
		}
		off += int(size)
		bounds = append(bounds, off) // end of payload, before CRC
		off += 4
		bounds = append(bounds, off) // after CRC
	}
}

// TestSnapshotTruncationTorture is the crash-recovery contract: a
// snapshot cut short at any section boundary — and at a spread of
// mid-section offsets — must fail restore with an error, never panic,
// never return a partial corpus.
func TestSnapshotTruncationTorture(t *testing.T) {
	c := goldenCollector(t)
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	cuts := sectionBoundaries(t, raw)
	// A sample of mid-section offsets, including off-by-one around each
	// boundary and a sweep through the payload interiors.
	for _, b := range append([]int(nil), cuts...) {
		if b > 0 {
			cuts = append(cuts, b-1)
		}
		if b+1 < len(raw) {
			cuts = append(cuts, b+1)
		}
	}
	for off := 13; off < len(raw)-1; off += len(raw) / 97 {
		cuts = append(cuts, off)
	}

	for _, cut := range cuts {
		if cut >= len(raw) {
			continue
		}
		got, err := OpenSnapshot(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d restored a corpus (%d addrs)", cut, len(raw), got.NumAddrs())
		}
		if got != nil {
			t.Fatalf("truncation at %d returned a non-nil collector with its error", cut)
		}
	}
}

// TestSnapshotBitFlipTorture flips bits across the stream — header,
// counts, payloads, CRCs — and requires every flip to surface as an
// error. CRC-32C catches all single-bit payload damage; the framing
// checks catch the rest.
func TestSnapshotBitFlipTorture(t *testing.T) {
	c := goldenCollector(t)
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	step := len(raw)/211 + 1
	for off := 0; off < len(raw); off += step {
		for _, bit := range []uint{0, 3, 7} {
			flipped := append([]byte(nil), raw...)
			flipped[off] ^= 1 << bit
			if _, err := OpenSnapshot(bytes.NewReader(flipped)); err == nil {
				t.Fatalf("bit flip at byte %d bit %d restored silently", off, bit)
			}
		}
	}
}

// TestOpenSnapshotGarbage rejects a spread of hostile inputs outright.
func TestOpenSnapshotGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"short magic": []byte("h6c"),
		"bad magic":   []byte("notacorp00000000000000000000"),
		"text":        []byte("hello world this is not a snapshot at all"),
		"zeros":       make([]byte, 256),
	}
	// Version from the future.
	future := []byte("h6corps1\xff\xff\xff\xff")
	cases["future version"] = future
	// Meta section lying about counts far past the payload.
	lying := []byte("h6corps1\x00\x00\x00\x01")
	lying = append(lying, 0, 0, 0, 1 /* id */, 0, 0, 0, 0, 0, 0, 0, 40)
	huge := make([]byte, 40)
	for i := range huge {
		huge[i] = 0xfe
	}
	lying = append(lying, huge...)
	cases["lying meta"] = lying

	for name, raw := range cases {
		if _, err := OpenSnapshot(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: restored without error", name)
		}
	}
}

// TestOpenSnapshotHugeCountsNoAlloc: a snapshot whose meta declares
// billions of records but carries no payload must fail fast on the
// missing bytes instead of allocating for the declared counts.
func TestOpenSnapshotHugeCountsNoAlloc(t *testing.T) {
	var buf bytes.Buffer
	// Hand-frame: valid header + valid meta section claiming 2^30 addrs,
	// then EOF.
	buf.WriteString("h6corps1")
	binary.Write(&buf, binary.BigEndian, uint32(1))
	binary.Write(&buf, binary.BigEndian, uint32(secMeta))
	binary.Write(&buf, binary.BigEndian, uint64(metaWire))
	start := buf.Len()
	binary.Write(&buf, binary.BigEndian, uint64(5))     // total
	binary.Write(&buf, binary.BigEndian, uint64(1<<30)) // addrN
	binary.Write(&buf, binary.BigEndian, uint64(0))     // iidN
	binary.Write(&buf, binary.BigEndian, uint64(0))     // spanN
	binary.Write(&buf, binary.BigEndian, uint64(0))     // singleN
	crc := crc32Castagnoli(buf.Bytes()[start:])
	binary.Write(&buf, binary.BigEndian, crc)
	binary.Write(&buf, binary.BigEndian, uint32(secAddrs))
	binary.Write(&buf, binary.BigEndian, uint64(1<<30)*AddrRecordWire)
	// ...and no payload.

	done := make(chan error, 1)
	go func() {
		_, err := OpenSnapshot(bytes.NewReader(buf.Bytes()))
		done <- err
	}()
	if err := <-done; err == nil {
		t.Fatalf("restore of 2^30-addr husk succeeded")
	}
}

func crc32Castagnoli(b []byte) uint32 {
	return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli))
}

// TestSnapshotUnreadableWriter surfaces writer errors instead of
// swallowing them.
func TestSnapshotUnreadableWriter(t *testing.T) {
	c := goldenCollector(t)
	for limit := 0; limit < 2000; limit += 97 {
		w := &failAfter{n: limit}
		if err := c.Snapshot(w); err == nil {
			t.Fatalf("Snapshot over a writer failing at byte %d reported success", limit)
		}
	}
}

type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) >= w.n {
		n := w.n
		w.n = 0
		return n, io.ErrClosedPipe
	}
	w.n -= len(p)
	return len(p), nil
}

// TestSnapshotCorruptStructure hand-corrupts structural fields the CRC
// does protect — by recomputing the CRC after the edit — to prove the
// semantic validation catches what checksums alone cannot.
func TestSnapshotCorruptStructure(t *testing.T) {
	// A tiny corpus with one EUI-64 (promoted, spanned) IID and one
	// singleton.
	c := New()
	mac := addr.MAC{0x00, 0x11, 0x22, 0x33, 0x44, 0x55}
	c.ObserveUnix(addr.EUI64Addr(addr.MustParse("2001:db8:1::").P64(), mac), 1650000000, 1)
	c.ObserveUnix(addr.MustParse("2001:db8:2::1111"), 1650000100, 2)
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Locate sections.
	type section struct{ hdr, payload, end int }
	secs := map[uint32]section{}
	off := 12
	for {
		id := binary.BigEndian.Uint32(raw[off:])
		size := int(binary.BigEndian.Uint64(raw[off+4:]))
		if id == 0 {
			break
		}
		secs[id] = section{hdr: off, payload: off + 12, end: off + 12 + size}
		off += 12 + size + 4
	}

	corrupt := func(name string, mutate func(b []byte)) {
		t.Run(name, func(t *testing.T) {
			mutated := append([]byte(nil), raw...)
			mutate(mutated)
			// Recompute every section CRC so only the structural check can
			// reject.
			for _, s := range secs {
				crc := crc32Castagnoli(mutated[s.payload:s.end])
				binary.BigEndian.PutUint32(mutated[s.end:], crc)
			}
			if _, err := OpenSnapshot(bytes.NewReader(mutated)); err == nil {
				t.Fatalf("structurally corrupt snapshot restored silently")
			}
		})
	}

	corrupt("span head out of range", func(b []byte) {
		iid := secs[secIIDs]
		// spans field at offset 28 of the first IID entry.
		binary.BigEndian.PutUint32(b[iid.payload+28:], 12345)
	})
	corrupt("span chain cycle", func(b []byte) {
		sp := secs[secSpans]
		// next field at offset 24: point the only span node at itself.
		binary.BigEndian.PutUint32(b[sp.payload+24:], 0)
	})
	corrupt("p64n mismatch", func(b []byte) {
		iid := secs[secIIDs]
		binary.BigEndian.PutUint32(b[iid.payload+32:], 7)
	})
	corrupt("singleton out of range", func(b []byte) {
		sg := secs[secSingletons]
		binary.BigEndian.PutUint32(b[sg.payload:], 99)
	})
	corrupt("duplicate address", func(b []byte) {
		ad := secs[secAddrs]
		// Overwrite the second address entry's key with the first's.
		copy(b[ad.payload+AddrRecordWire:ad.payload+AddrRecordWire+16], b[ad.payload:ad.payload+16])
	})
}

// TestSnapshotDeterministic: one collector snapshots to identical bytes
// every time (slab order is deterministic state).
func TestSnapshotDeterministic(t *testing.T) {
	c := goldenCollector(t)
	var a, b strings.Builder
	if err := c.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same collector snapshots to different bytes")
	}
}
