package collector

// Delta-checkpoint bookkeeping: the collector remembers how many address
// records existed at the last checkpoint (the clean watermark) and which
// fixed-size blocks below that watermark have been mutated in place
// since. A delta snapshot then carries exactly the dirty blocks plus
// everything past the watermark — O(dirty + new) instead of O(corpus) —
// and the write core pays one bounds check and (rarely) one bitset store
// per re-sighting. Only the address slab is tracked: it is the only
// thing a checkpoint holds.
//
// Blocks are deltaBlockSize records regardless of the slab's chunk
// geometry: fine enough that a lightly-dirtied corpus deltas at a small
// fraction of a full snapshot, coarse enough that the bitset costs one
// bit per 4096 records.
const (
	deltaBlockBits = 12
	deltaBlockSize = 1 << deltaBlockBits
)

// dirtySet tracks dirtied block indices as a growable bitset.
type dirtySet struct {
	bits []uint64
}

func (d *dirtySet) mark(block uint32) {
	w := int(block >> 6)
	for w >= len(d.bits) {
		d.bits = append(d.bits, 0)
	}
	d.bits[w] |= 1 << (block & 63)
}

func (d *dirtySet) has(block uint32) bool {
	w := int(block >> 6)
	return w < len(d.bits) && d.bits[w]&(1<<(block&63)) != 0
}

func (d *dirtySet) reset() {
	for i := range d.bits {
		d.bits[i] = 0
	}
}

func (d *dirtySet) bytes() uint64 { return uint64(cap(d.bits)) * 8 }

// ckptState is the collector's checkpoint watermark: what the last
// durable artifact covered, and what has been dirtied since.
type ckptState struct {
	// seq is the checkpoint chain position: 0 for a full snapshot, k for
	// the k'th delta on top of it. based reports whether any checkpoint
	// baseline exists at all — a fresh collector has none, and deltas
	// cannot be taken against nothing.
	seq   uint64
	based bool
	// addrBase is the address-slab count at the last checkpoint; records
	// at or past it are new and need no dirty marking (the delta carries
	// every block touching them anyway).
	addrBase uint32
	// baseTotal is the observation count at the last checkpoint; deltas
	// embed it so a chain applied to the wrong base fails fast.
	baseTotal uint64

	dirty dirtySet

	// lastBase, lastN and lastDirty are the watermark, slab count and
	// dirty set the last markClean retired: the blocks the last delta
	// carried, which LastDeltaOrder walks. The two dirty sets trade places
	// at every checkpoint, so keeping them costs no write-path work.
	lastBase, lastN uint32
	lastDirty       dirtySet
}

// markAddrDirty records an in-place mutation of address record i.
func (c *Collector) markAddrDirty(i uint32) {
	if i < c.ckpt.addrBase {
		c.ckpt.dirty.mark(i >> deltaBlockBits)
	}
}

// markClean resets the watermark to the current slab count: everything
// resident is now covered by the checkpoint at seq. The outgoing
// watermark and dirty set become the last delta's.
func (c *Collector) markClean(seq uint64) {
	c.ckpt.seq = seq
	c.ckpt.based = true
	c.ckpt.lastBase, c.ckpt.lastN = c.ckpt.addrBase, c.addrRecs.n
	c.ckpt.dirty, c.ckpt.lastDirty = c.ckpt.lastDirty, c.ckpt.dirty
	c.ckpt.addrBase = c.addrRecs.n
	c.ckpt.baseTotal = c.total
	c.ckpt.dirty.reset()
}

// CheckpointSeq returns the collector's checkpoint chain position (0 =
// full snapshot, k = k deltas on top) and whether any checkpoint
// baseline exists. A fresh collector reports (0, false) until its first
// full checkpoint or restore.
func (c *Collector) CheckpointSeq() (uint64, bool) { return c.ckpt.seq, c.ckpt.based }

// MarkCheckpointedFull records that a full snapshot of the current
// state was durably written: the chain restarts at sequence 0 and all
// dirty tracking resets. Callers must guarantee no writes ran between
// the Snapshot call and this one (the Store checkpoint methods hold the
// write lock across both).
func (c *Collector) MarkCheckpointedFull() { c.markClean(0) }

// MarkCheckpointedDelta records that the delta SnapshotDelta just wrote
// was durably stored: the watermark advances and the chain sequence
// increments. Same no-intervening-writes contract as
// MarkCheckpointedFull.
func (c *Collector) MarkCheckpointedDelta() { c.markClean(c.ckpt.seq + 1) }

// deltaBlock is one block's record range [lo, hi) within the slab.
type deltaBlock struct {
	idx    uint32
	lo, hi uint32
}

// deltaBlocks lists the blocks a delta must carry: every dirty block
// below the watermark plus every block containing records past it.
// Blocks come out in ascending index order with hi ==
// min(n, (idx+1)*deltaBlockSize) — the shape the reader validates.
func deltaBlocks(base, n uint32, dirty *dirtySet) []deltaBlock {
	if n == 0 {
		return nil
	}
	var out []deltaBlock
	last := (n - 1) >> deltaBlockBits
	for b := uint32(0); b <= last; b++ {
		end := (b + 1) << deltaBlockBits
		if end > n {
			end = n
		}
		if !dirty.has(b) && end <= base {
			continue
		}
		out = append(out, deltaBlock{idx: b, lo: b << deltaBlockBits, hi: end})
	}
	return out
}
