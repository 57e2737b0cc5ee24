package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hitlist6/internal/snapfmt"
)

// Delta snapshots are the write-side half of the tiered corpus: instead
// of re-serializing O(corpus) on every checkpoint, a delta carries only
// the address-slab blocks dirtied since the last checkpoint plus every
// block of new records past the watermark (see dirty.go). A chain is
// one full snapshot (sequence 0) followed by deltas 1..k; restore is
// NewRestore, ApplyDelta per delta, then Restore.Collector, and folding
// a chain back into a single full snapshot (compaction) is simply
// restoring it and writing Snapshot again.
//
// Like a snapshot, a delta holds address records and nothing derived
// from them: restore overlays the blocks on the base's slab and indexes
// it once, at the end of the chain (Restore.Collector).
//
// Chain linkage is by (parentSeq, base record count, base total): a
// delta that was cut against another state than the one restored so far
// is refused (ErrStaleDelta) instead of producing a silently wrong
// corpus. Every structural lie a block can tell — overlap, gaps, count
// mismatches, key rewrites below the watermark — is an error, never a
// panic, and a restore that has seen one never yields a collector.
//
// Version history:
//
//	2: sections meta(1), addrs(2).
//	1: an 80-byte meta whose first six fields are version 2's, addrs(2),
//	   then block lists of promoted IID records (3) and span nodes (4).
//	   Read like a version-1 snapshot: meta and addrs, the rest drained.
//
//lint:durable-path delta snapshots are the incremental half of crash recovery
const (
	deltaMagic   = "h6delta1"
	deltaVersion = 2

	// parentSeq, seq, baseTotal, total, baseAddrN, addrN — big-endian
	// u64s; v1 appended baseIIDN, iidN, baseSpanN, spanN.
	deltaMetaFields   = 6
	deltaMetaFieldsV1 = 10
	deltaLastV1       = 4 // v1's last section id; 3..4 are drained

	// deltaBlockHdr prefixes each block: blockIdx u32, record count u32.
	deltaBlockHdr = 8
)

// SnapshotDelta writes the blocks dirtied or grown since the last
// checkpoint. It is read-only on c — the caller advances the watermark
// with MarkCheckpointedDelta once the bytes are durable — and errors if
// the collector has no checkpoint baseline to delta against. Like
// Snapshot it does not buffer; hand it a *bufio.Writer for raw files.
func (c *Collector) SnapshotDelta(w io.Writer) error {
	if !c.ckpt.based {
		return fmt.Errorf("collector: delta without a base checkpoint")
	}
	sw, err := snapfmt.NewWriter(w, deltaMagic, deltaVersion)
	if err != nil {
		return err
	}
	if err := writeMeta(sw, c.ckpt.seq, c.ckpt.seq+1, c.ckpt.baseTotal, c.total,
		uint64(c.ckpt.addrBase), uint64(c.addrRecs.n)); err != nil {
		return err
	}

	// The block list: u32 block count, then per block
	// [blockIdx u32][n u32][n address records].
	blocks := deltaBlocks(c.ckpt.addrBase, c.addrRecs.n, &c.ckpt.dirty)
	size := uint64(4)
	for _, bl := range blocks {
		size += deltaBlockHdr + uint64(bl.hi-bl.lo)*AddrRecordWire
	}
	if err := sw.Begin(secAddrs, size); err != nil {
		return err
	}
	buf := make([]byte, 0, wireBatch*AddrRecordWire)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(blocks)))
	for _, bl := range blocks {
		buf = binary.BigEndian.AppendUint32(buf, bl.idx)
		buf = binary.BigEndian.AppendUint32(buf, bl.hi-bl.lo)
		if buf, err = c.writeAddrs(sw, buf, bl.lo, bl.hi); err != nil {
			return err
		}
	}
	if err := endSection(sw, buf); err != nil {
		return err
	}
	return sw.Close()
}

// ApplyDelta overlays one delta on the restore, which must be exactly
// the chain state the delta was cut against. A delta cut against
// another state returns ErrStaleDelta and changes nothing; any other
// error is damage, and the restore will yield no collector.
func (rs *Restore) ApplyDelta(r io.Reader) error {
	if rs.err != nil {
		return rs.err
	}
	sr, err := openStream(r, deltaMagic, deltaVersion, "delta")
	if err == nil {
		if err = rs.readDelta(sr); err != nil {
			err = fmt.Errorf("collector: delta: %w", err)
		}
	}
	if err != nil && !errors.Is(err, ErrStaleDelta) {
		rs.err = err
	}
	return err
}

func (rs *Restore) readDelta(sr *snapfmt.Reader) error {
	var meta [deltaMetaFields]uint64
	if err := readMeta(sr, meta[:], deltaMetaFieldsV1); err != nil {
		return err
	}
	parentSeq, seq, baseTotal, total, baseAddrN, addrN := meta[0], meta[1], meta[2], meta[3], meta[4], meta[5]
	if parentSeq != rs.seq || baseTotal != rs.total || baseAddrN != uint64(rs.addrRecs.n) {
		return fmt.Errorf("%w: cut at seq %d over %d obs, %d records; chain is at seq %d with %d obs, %d records",
			ErrStaleDelta, parentSeq, baseTotal, baseAddrN, rs.seq, rs.total, rs.addrRecs.n)
	}
	if seq != parentSeq+1 {
		return fmt.Errorf("seq %d does not follow parent %d", seq, parentSeq)
	}
	if addrN > uint64(maxSlabIndex) {
		return fmt.Errorf("count %d exceeds slab addressing", addrN)
	}
	if addrN < baseAddrN || total < baseTotal {
		return fmt.Errorf("delta shrinks the corpus")
	}
	if err := rs.readBlocks(sr, addrN); err != nil {
		return fmt.Errorf("addrs: %w", err)
	}
	if uint64(rs.addrRecs.n) != addrN {
		return fmt.Errorf("addrs: blocks cover %d records, meta declares %d", rs.addrRecs.n, addrN)
	}
	if err := endStream(sr, deltaLastV1); err != nil {
		return err
	}
	rs.total, rs.seq = total, seq
	return nil
}

// readBlocks streams a delta's block list into the slab, overwriting
// the records the chain holds and appending new ones up to newN. Blocks
// must arrive in strictly ascending index order with the exact
// write-side shape hi == min(newN, (idx+1)*deltaBlockSize): anything
// else is a gap or overlap.
func (rs *Restore) readBlocks(sr *snapfmt.Reader, newN uint64) error {
	size, err := sr.Expect(secAddrs, snapfmt.AnySize)
	if err != nil {
		return err
	}
	var hdr [deltaBlockHdr]byte
	if _, err := io.ReadFull(sr, hdr[:4]); err != nil {
		return err
	}
	blocks := binary.BigEndian.Uint32(hdr[:])
	if uint64(blocks) > (newN+deltaBlockSize-1)>>deltaBlockBits {
		return fmt.Errorf("%d blocks over a %d-record slab", blocks, newN)
	}
	declared := uint64(4)
	prev := int64(-1)
	for bi := uint32(0); bi < blocks; bi++ {
		if _, err := io.ReadFull(sr, hdr[:]); err != nil {
			return err
		}
		idx := binary.BigEndian.Uint32(hdr[0:])
		n := binary.BigEndian.Uint32(hdr[4:])
		if int64(idx) <= prev {
			return fmt.Errorf("block %d out of order", idx)
		}
		prev = int64(idx)
		lo := uint64(idx) << deltaBlockBits
		hi := lo + uint64(n)
		wantHi := min((uint64(idx)+1)<<deltaBlockBits, newN)
		if n == 0 || hi != wantHi {
			return fmt.Errorf("block %d covers [%d,%d), want [%d,%d)", idx, lo, hi, lo, wantHi)
		}
		if lo > uint64(rs.addrRecs.n) {
			return fmt.Errorf("block %d leaves a gap at %d", idx, rs.addrRecs.n)
		}
		declared += deltaBlockHdr + uint64(n)*AddrRecordWire
		if err := rs.readAddrs(sr, lo, hi); err != nil {
			return err
		}
	}
	if declared != size {
		return fmt.Errorf("section declares %d bytes but blocks cover %d", size, declared)
	}
	return sr.End()
}
