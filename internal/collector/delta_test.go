package collector

import (
	"bytes"
	"errors"
	"testing"

	"hitlist6/internal/addr"
)

// feedGolden replays golden-stream events [lo, hi) into c.
func feedGolden(c *Collector, addrs []addr.Addr, times []int64, servers []int, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.ObserveUnix(addrs[i], times[i], servers[i])
	}
}

// TestDeltaRoundTrip: full checkpoint, more observations, one delta;
// the restored chain must be observation-identical to the live
// collector and sit at the delta's chain position.
func TestDeltaRoundTrip(t *testing.T) {
	addrs, times, servers := goldenStream()
	c := New()
	feedGolden(c, addrs, times, servers, 0, len(addrs)/2)

	var base bytes.Buffer
	if err := c.Snapshot(&base); err != nil {
		t.Fatal(err)
	}
	c.MarkCheckpointedFull()

	feedGolden(c, addrs, times, servers, len(addrs)/2, len(addrs))
	var delta bytes.Buffer
	if err := c.SnapshotDelta(&delta); err != nil {
		t.Fatalf("SnapshotDelta: %v", err)
	}
	c.MarkCheckpointedDelta()

	got, err := RestoreChain(bytes.NewReader(base.Bytes()), bytes.NewReader(delta.Bytes()))
	if err != nil {
		t.Fatalf("RestoreChain: %v", err)
	}
	if got.Checksum() != c.Checksum() {
		t.Fatalf("chain-restored checksum differs from live")
	}
	sameCorpus(t, got, c)
	if seq, based := got.CheckpointSeq(); !based || seq != 1 {
		t.Fatalf("chain-restored collector at seq %d based=%v, want 1/true", seq, based)
	}
	// The restored collector keeps accepting observations and deltas.
	got.ObserveUnix(addr.MustParse("2001:db8::abcd"), 1700000000, 1)
	var next bytes.Buffer
	if err := got.SnapshotDelta(&next); err != nil {
		t.Fatalf("delta on chain-restored collector: %v", err)
	}
}

// TestDeltaChain: a base plus several deltas restore to the live state,
// and every delta is validated against its exact parent.
func TestDeltaChain(t *testing.T) {
	addrs, times, servers := goldenStream()
	c := New()
	n := len(addrs)
	feedGolden(c, addrs, times, servers, 0, n/4)

	var base bytes.Buffer
	if err := c.Snapshot(&base); err != nil {
		t.Fatal(err)
	}
	c.MarkCheckpointedFull()

	var deltas []bytes.Buffer
	for _, seg := range [][2]int{{n / 4, n / 2}, {n / 2, 3 * n / 4}, {3 * n / 4, n}} {
		feedGolden(c, addrs, times, servers, seg[0], seg[1])
		var d bytes.Buffer
		if err := c.SnapshotDelta(&d); err != nil {
			t.Fatal(err)
		}
		c.MarkCheckpointedDelta()
		deltas = append(deltas, d)
	}

	got, err := RestoreChain(bytes.NewReader(base.Bytes()),
		bytes.NewReader(deltas[0].Bytes()), bytes.NewReader(deltas[1].Bytes()), bytes.NewReader(deltas[2].Bytes()))
	if err != nil {
		t.Fatalf("RestoreChain: %v", err)
	}
	if got.Checksum() != c.Checksum() {
		t.Fatalf("3-delta chain checksum differs from live")
	}
	if seq, _ := got.CheckpointSeq(); seq != 3 {
		t.Fatalf("chain at seq %d, want 3", seq)
	}

	// Deltas out of order or skipped must be rejected.
	if _, err := RestoreChain(bytes.NewReader(base.Bytes()), bytes.NewReader(deltas[1].Bytes())); err == nil {
		t.Fatalf("chain skipping delta 1 restored silently")
	}
	if _, err := RestoreChain(bytes.NewReader(base.Bytes()),
		bytes.NewReader(deltas[0].Bytes()), bytes.NewReader(deltas[0].Bytes())); err == nil {
		t.Fatalf("chain replaying delta 1 twice restored silently")
	}
}

// TestDeltaSizeRatio pins the acceptance bar: on a lightly-dirtied
// corpus a delta checkpoint must be at least 10x smaller than a full
// snapshot.
func TestDeltaSizeRatio(t *testing.T) {
	c := New()
	state := uint64(0xfeed)
	const n = 60000
	keys := make([]addr.Addr, n)
	for i := range keys {
		keys[i] = addr.FromParts(0x2001_0db8_0000_0000|splitmix64(&state)&0xffff_ffff, splitmix64(&state))
		c.ObserveUnix(keys[i], 1650000000+int64(i%1000), int(state%8))
	}

	var full bytes.Buffer
	if err := c.Snapshot(&full); err != nil {
		t.Fatal(err)
	}
	c.MarkCheckpointedFull()

	// Dirty a thin slice of the corpus: re-sightings of records that all
	// live in the first delta block.
	for i := 0; i < 50; i++ {
		c.ObserveUnix(keys[i], 1650100000, 1)
	}
	var delta bytes.Buffer
	if err := c.SnapshotDelta(&delta); err != nil {
		t.Fatal(err)
	}
	if ratio := float64(full.Len()) / float64(delta.Len()); ratio < 10 {
		t.Fatalf("delta is %d bytes vs %d full: ratio %.1fx < 10x", delta.Len(), full.Len(), ratio)
	}

	got, err := RestoreChain(bytes.NewReader(full.Bytes()), bytes.NewReader(delta.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum() != c.Checksum() {
		t.Fatalf("light-delta chain checksum differs from live")
	}
}

// TestDeltaAfterMergeAndAbsorb: the dirty tracking must see mutations
// arriving through the merge paths (shard ingest), not just ObserveUnix.
func TestDeltaAfterMergeAndAbsorb(t *testing.T) {
	addrs, times, servers := goldenStream()
	c := New()
	feedGolden(c, addrs, times, servers, 0, 2000)

	var base bytes.Buffer
	if err := c.Snapshot(&base); err != nil {
		t.Fatal(err)
	}
	c.MarkCheckpointedFull()

	// A colliding shard (same key universe) updates existing records in
	// place; a disjoint one only appends new records.
	shard := New()
	feedGolden(shard, addrs, times, servers, 1000, 3500)
	c.Absorb(shard)

	disjoint := New()
	disjoint.ObserveUnix(addr.MustParse("2001:db9:1::1"), 1660000000, 1)
	disjoint.ObserveUnix(addr.MustParse("2001:db9:2::2"), 1660000001, 2)
	c.Absorb(disjoint)

	var delta bytes.Buffer
	if err := c.SnapshotDelta(&delta); err != nil {
		t.Fatal(err)
	}
	got, err := RestoreChain(bytes.NewReader(base.Bytes()), bytes.NewReader(delta.Bytes()))
	if err != nil {
		t.Fatalf("RestoreChain after merge: %v", err)
	}
	if got.Checksum() != c.Checksum() {
		t.Fatalf("post-merge delta chain checksum differs from live")
	}
}

// TestDeltaWithoutBase: a fresh collector has nothing to delta against.
func TestDeltaWithoutBase(t *testing.T) {
	var buf bytes.Buffer
	if err := New().SnapshotDelta(&buf); err == nil {
		t.Fatalf("delta without a base checkpoint succeeded")
	}
}

// TestDeltaWrongBase: a delta restores only onto the exact state it was
// cut against. Anything else is refused as ErrStaleDelta — a leftover,
// which the file layer may drop, not damage — and leaves the restore as
// it was.
func TestDeltaWrongBase(t *testing.T) {
	addrs, times, servers := goldenStream()
	c := New()
	feedGolden(c, addrs, times, servers, 0, 1000)
	var base bytes.Buffer
	if err := c.Snapshot(&base); err != nil {
		t.Fatal(err)
	}
	c.MarkCheckpointedFull()
	feedGolden(c, addrs, times, servers, 1000, 2000)
	var delta bytes.Buffer
	if err := c.SnapshotDelta(&delta); err != nil {
		t.Fatal(err)
	}

	// The base the chain was compacted into: one observation further on.
	drifted, err := OpenSnapshot(bytes.NewReader(base.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	drifted.ObserveUnix(addr.MustParse("2001:db8::1"), 1700000000, 1)
	var newBase bytes.Buffer
	if err := drifted.Snapshot(&newBase); err != nil {
		t.Fatal(err)
	}
	var empty bytes.Buffer
	if err := New().Snapshot(&empty); err != nil {
		t.Fatal(err)
	}
	for name, wrong := range map[string][]byte{"drifted base": newBase.Bytes(), "empty base": empty.Bytes()} {
		if _, err := RestoreChain(bytes.NewReader(wrong), bytes.NewReader(delta.Bytes())); !errors.Is(err, ErrStaleDelta) {
			t.Fatalf("%s: RestoreChain error = %v, want ErrStaleDelta", name, err)
		}
	}

	rs, err := NewRestore(bytes.NewReader(newBase.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.ApplyDelta(bytes.NewReader(delta.Bytes())); !errors.Is(err, ErrStaleDelta) {
		t.Fatalf("ApplyDelta error = %v, want ErrStaleDelta", err)
	}
	got, err := rs.Collector()
	if err != nil {
		t.Fatalf("restore after a stale delta: %v", err)
	}
	sameCorpus(t, got, drifted)

	// Damage is not staleness: the restore is dead from then on.
	rs, err = NewRestore(bytes.NewReader(base.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cut := delta.Bytes()[:delta.Len()/2]
	if err := rs.ApplyDelta(bytes.NewReader(cut)); err == nil || errors.Is(err, ErrStaleDelta) {
		t.Fatalf("truncated delta: %v", err)
	}
	if got, err := rs.Collector(); err == nil || got != nil {
		t.Fatalf("restore that read a damaged delta yielded a collector (%v)", err)
	}
}

// deltaFixture builds a (base, delta, live) triple for the torture
// tests.
func deltaFixture(t *testing.T) (base, delta []byte, live *Collector) {
	t.Helper()
	addrs, times, servers := goldenStream()
	c := New()
	feedGolden(c, addrs, times, servers, 0, 2500)
	var b bytes.Buffer
	if err := c.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	c.MarkCheckpointedFull()
	feedGolden(c, addrs, times, servers, 2500, 5000)
	var d bytes.Buffer
	if err := c.SnapshotDelta(&d); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), d.Bytes(), c
}

// deltaFixtures returns one (base, delta) chain per format version the
// reader accepts.
func deltaFixtures(t *testing.T) map[string][2][]byte {
	base, delta, _ := deltaFixture(t)
	v1Base, v1Delta := v1Chain(t)
	return map[string][2][]byte{"v2": {base, delta}, "v1": {v1Base, v1Delta}}
}

// TestDeltaTruncationTorture: a delta cut anywhere must fail the chain
// restore with an error — never a panic, never a partial corpus.
func TestDeltaTruncationTorture(t *testing.T) {
	for name, chain := range deltaFixtures(t) {
		t.Run(name, func(t *testing.T) { deltaTruncationTorture(t, chain[0], chain[1]) })
	}
}

func deltaTruncationTorture(t *testing.T, base, delta []byte) {
	cuts := sectionBoundaries(t, delta)
	for _, b := range append([]int(nil), cuts...) {
		if b > 0 {
			cuts = append(cuts, b-1)
		}
		if b+1 < len(delta) {
			cuts = append(cuts, b+1)
		}
	}
	for off := 13; off < len(delta)-1; off += len(delta)/97 + 1 {
		cuts = append(cuts, off)
	}
	for _, cut := range cuts {
		if cut >= len(delta) {
			continue
		}
		got, err := RestoreChain(bytes.NewReader(base), bytes.NewReader(delta[:cut]))
		if err == nil {
			t.Fatalf("delta truncated at %d/%d restored a corpus", cut, len(delta))
		}
		if got != nil {
			t.Fatalf("delta truncated at %d returned a collector with its error", cut)
		}
	}
}

// TestDeltaBitFlipTorture: every single-bit flip across the delta
// stream must surface as an error.
func TestDeltaBitFlipTorture(t *testing.T) {
	for name, chain := range deltaFixtures(t) {
		base, delta := chain[0], chain[1]
		step := len(delta)/211 + 1
		for off := 0; off < len(delta); off += step {
			for _, bit := range []uint{0, 3, 7} {
				flipped := append([]byte(nil), delta...)
				flipped[off] ^= 1 << bit
				if _, err := RestoreChain(bytes.NewReader(base), bytes.NewReader(flipped)); err == nil {
					t.Fatalf("%s: delta bit flip at byte %d bit %d restored silently", name, off, bit)
				}
			}
		}
	}
}

// TestStoreDeltaCheckpoints drives the chain through the Store facade:
// full, two deltas, restore, and the no-base guard.
func TestStoreDeltaCheckpoints(t *testing.T) {
	addrs, times, servers := goldenStream()
	s := NewStore()

	var early bytes.Buffer
	if err := s.CheckpointDelta(&early); err == nil {
		t.Fatalf("delta checkpoint before any full checkpoint succeeded")
	}

	shard := New()
	feedGolden(shard, addrs, times, servers, 0, 1500)
	s.ApplyShard(shard)

	var base bytes.Buffer
	if err := s.CheckpointFull(&base); err != nil {
		t.Fatal(err)
	}
	if seq, based := s.CheckpointSeq(); !based || seq != 0 {
		t.Fatalf("store at seq %d based=%v after full checkpoint", seq, based)
	}

	var deltas []bytes.Buffer
	for _, seg := range [][2]int{{1500, 3000}, {3000, 5000}} {
		shard := New()
		feedGolden(shard, addrs, times, servers, seg[0], seg[1])
		s.ApplyShard(shard)
		var d bytes.Buffer
		if err := s.CheckpointDelta(&d); err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, d)
	}
	if seq, _ := s.CheckpointSeq(); seq != 2 {
		t.Fatalf("store at seq %d after two deltas", seq)
	}

	got, err := RestoreChain(bytes.NewReader(base.Bytes()),
		bytes.NewReader(deltas[0].Bytes()), bytes.NewReader(deltas[1].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum() != storeChecksum(s) {
		t.Fatalf("store chain restore checksum differs")
	}
}

// TestDeltaFailedWriteKeepsWatermark: a failed delta write must not
// advance the chain — the store can retry or fall back to a full
// checkpoint with nothing lost.
func TestDeltaFailedWriteKeepsWatermark(t *testing.T) {
	addrs, times, servers := goldenStream()
	s := NewStore()
	shard := New()
	feedGolden(shard, addrs, times, servers, 0, 1000)
	s.ApplyShard(shard)
	var base bytes.Buffer
	if err := s.CheckpointFull(&base); err != nil {
		t.Fatal(err)
	}
	shard = New()
	feedGolden(shard, addrs, times, servers, 1000, 2000)
	s.ApplyShard(shard)

	if err := s.CheckpointDelta(&failAfter{n: 100}); err == nil {
		t.Fatalf("delta over a failing writer reported success")
	}
	if seq, based := s.CheckpointSeq(); !based || seq != 0 {
		t.Fatalf("failed delta moved the watermark to seq %d based=%v", seq, based)
	}
	var d bytes.Buffer
	if err := s.CheckpointDelta(&d); err != nil {
		t.Fatalf("retry after failed delta: %v", err)
	}
	got, err := RestoreChain(bytes.NewReader(base.Bytes()), bytes.NewReader(d.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum() != storeChecksum(s) {
		t.Fatalf("retried delta chain checksum differs")
	}
}
