package collector

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hitlist6/internal/addr"
)

// updateGolden regenerates testdata/golden.v2.snap from the golden
// stream:
//
//	go test ./internal/collector -run TestSnapshotGoldenFixture -update
//
// Only legitimate when the snapshot format version is bumped, and then
// under a new name: a fixture pins its version's exact bytes as
// readable forever. testdata/golden.snap and testdata/v1chain are
// version 1, written by the last commit whose writers emitted it;
// nothing can regenerate them.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.v2.snap")

const (
	goldenSnapshotPath   = "testdata/golden.v2.snap"
	goldenSnapshotPathV1 = "testdata/golden.snap"
)

// snapshotFixtures returns one snapshot of the golden stream per format
// version the reader accepts.
func snapshotFixtures(t testing.TB) map[string][]byte {
	t.Helper()
	var v2 bytes.Buffer
	if err := goldenCollector(t).Snapshot(&v2); err != nil {
		t.Fatal(err)
	}
	v1, err := os.ReadFile(goldenSnapshotPathV1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"v2": v2.Bytes(), "v1": v1}
}

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

// TestSnapshotRoundTrip is the format's invariant: snapshot → restore
// reproduces the canonical encoding byte for byte, along with every
// count and every per-IID view, all of it derived from the address
// records the snapshot holds.
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
	sameCorpus(t, got, c)
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
	if got.NumAddrs() != 0 || got.CopyRecords().IIDTable().NumIIDs() != 0 || got.TotalObservations() != 0 {
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

// TestSnapshotGoldenFixture pins the format from both sides: the
// checked-in fixtures — version 2, and version 1 with the derived
// sections the reader now drains — must keep restoring to the golden
// checksum regardless of any future reader or layout change, and a
// serial collector fed the golden stream must keep writing exactly the
// version-2 fixture's bytes. (Snapshots encode slab order, so the bytes
// are a function of the observation order — fixed here — not of the
// corpus alone.)
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
	var raw []byte
	for _, path := range []string{goldenSnapshotPathV1, goldenSnapshotPath} {
		var err error
		if raw, err = os.ReadFile(path); err != nil {
			t.Fatalf("golden fixture missing: %v", err)
		}
		if v := binary.BigEndian.Uint32(raw[8:]); (v == snapVersion) != (path == goldenSnapshotPath) {
			t.Fatalf("%s is version %d", path, v)
		}
		c, err := OpenSnapshot(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s no longer restores: %v", path, err)
		}
		sum := c.Checksum()
		if got := hex.EncodeToString(sum[:]); got != goldenChecksum {
			t.Fatalf("%s restores to checksum %s, want %s", path, got, goldenChecksum)
		}
		sameCorpus(t, c, goldenCollector(t))
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
	for name, raw := range snapshotFixtures(t) {
		t.Run(name, func(t *testing.T) { truncationTorture(t, raw) })
	}
}

func truncationTorture(t *testing.T, raw []byte) {
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
// error, in the sections a version-1 file carries only to be drained as
// much as in those that are loaded. CRC-32C catches all single-bit
// payload damage; the framing checks catch the rest.
func TestSnapshotBitFlipTorture(t *testing.T) {
	for name, raw := range snapshotFixtures(t) {
		step := len(raw)/211 + 1
		for off := 0; off < len(raw); off += step {
			for _, bit := range []uint{0, 3, 7} {
				flipped := append([]byte(nil), raw...)
				flipped[off] ^= 1 << bit
				if _, err := OpenSnapshot(bytes.NewReader(flipped)); err == nil {
					t.Fatalf("%s: bit flip at byte %d bit %d restored silently", name, off, bit)
				}
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
	// Meta section lying about counts far past the payload, in both
	// versions' meta sizes.
	for version, size := range map[byte]byte{1: metaFieldsV1 * 8, snapVersion: metaFields * 8} {
		lying := []byte{'h', '6', 'c', 'o', 'r', 'p', 's', '1', 0, 0, 0, version}
		lying = append(lying, 0, 0, 0, secMeta, 0, 0, 0, 0, 0, 0, 0, size)
		lying = append(lying, bytes.Repeat([]byte{0xfe}, int(size))...)
		cases[fmt.Sprintf("lying meta v%d", version)] = lying
	}

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
	binary.Write(&buf, binary.BigEndian, uint32(snapVersion))
	binary.Write(&buf, binary.BigEndian, uint32(secMeta))
	binary.Write(&buf, binary.BigEndian, uint64(metaFields*8))
	start := buf.Len()
	binary.Write(&buf, binary.BigEndian, uint64(5))     // total
	binary.Write(&buf, binary.BigEndian, uint64(1<<30)) // addrN
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

// wireSections locates a stream's sections by id: header offset,
// payload start and payload end (where the CRC sits).
type wireSection struct{ hdr, payload, end int }

func wireSections(raw []byte) map[uint32]wireSection {
	secs := map[uint32]wireSection{}
	for off := 12; ; {
		id := binary.BigEndian.Uint32(raw[off:])
		size := int(binary.BigEndian.Uint64(raw[off+4:]))
		if id == 0 {
			return secs
		}
		secs[id] = wireSection{hdr: off, payload: off + 12, end: off + 12 + size}
		off += 12 + size + 4
	}
}

// TestSnapshotCorruptStructure covers what a file can say that its CRCs
// do not catch, and what they must keep catching. A snapshot holds
// address records and nothing derived from them, so the one structural
// lie left is a duplicated address — hand-made here by recomputing the
// CRC after the edit. A version-1 file still carries derived sections:
// the reader drops their payload, but not before checking it arrived
// intact.
func TestSnapshotCorruptStructure(t *testing.T) {
	t.Run("duplicate address", func(t *testing.T) {
		c := New()
		c.ObserveUnix(addr.MustParse("2001:db8:1::1"), 1650000000, 1)
		c.ObserveUnix(addr.MustParse("2001:db8:2::1111"), 1650000100, 2)
		var buf bytes.Buffer
		if err := c.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		ad := wireSections(raw)[secAddrs]
		// Overwrite the second address entry's key with the first's.
		copy(raw[ad.payload+AddrRecordWire:][:16], raw[ad.payload:][:16])
		binary.BigEndian.PutUint32(raw[ad.end:], crc32Castagnoli(raw[ad.payload:ad.end]))
		if _, err := OpenSnapshot(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "duplicate address") {
			t.Fatalf("snapshot with a duplicated address: %v", err)
		}
	})
	t.Run("v1 derived section with a bad CRC is still an error", func(t *testing.T) {
		raw, err := os.ReadFile(goldenSnapshotPathV1)
		if err != nil {
			t.Fatal(err)
		}
		secs := wireSections(raw)
		for id := uint32(secAddrs + 1); id <= snapLastV1; id++ {
			sec, ok := secs[id]
			if !ok || sec.end == sec.payload {
				t.Fatalf("v1 fixture has no section %d to damage", id)
			}
			bad := append([]byte(nil), raw...)
			bad[(sec.payload+sec.end)/2] ^= 0x04
			if _, err := OpenSnapshot(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "crc") {
				t.Fatalf("v1 snapshot with section %d damaged: %v", id, err)
			}
		}
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
