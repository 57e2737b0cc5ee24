package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hitlist6/internal/snapfmt"
)

// The snapshot format is the collector's durable form, and it holds
// address records only: a meta section (observation total, record
// count) and the address slab verbatim, in slab order, as
// length-prefixed CRC-checked sections (see internal/snapfmt).
// A collector holds nothing else, and everything per IID is a fold of
// those records that readers build when they need it (Records.IIDTable),
// so no derived structure is ever decoded, trusted or validated from
// bytes. The invariant pinned by the golden fixtures and the round-trip
// fuzz target: a restored collector's Checksum equals the original's.
//
// Version history:
//
//	2: sections meta(1), addrs(2).
//	1: a 40-byte meta whose first two fields are version 2's, addrs(2),
//	   then five sections of derived state — iids(3), spans(4),
//	   singletons(5), p48s(6), p64s(7). The reader still accepts it: it
//	   loads meta and addrs and drains the rest through their CRCs.
//	   Writers emit version 2 only, so a restored v1 corpus is rewritten
//	   by the next checkpoint.
//
// Unknown versions and unknown/missing/reordered sections are errors —
// a reader never guesses at a corpus.
//
//lint:durable-path snapshots are the collector's crash-recovery state
const (
	snapMagic   = "h6corps1"
	snapVersion = 2

	secMeta  = 1
	secAddrs = 2

	metaFields   = 2 // total, addrN — big-endian u64s
	metaFieldsV1 = 5 // … then iidN, spanN, singletonN
	snapLastV1   = 7 // v1's last section id; 3..7 are drained

	// maxSlabIndex bounds the slab count a snapshot may declare: indices
	// are uint32s with the top bit reserved for an IIDTable's promotedTag
	// and +1 biasing in the tables.
	maxSlabIndex = promotedTag - 2
)

// wireBatch is how many entries marshal per Write call: large enough to
// amortize the framing layer, small enough that a lying section size
// cannot make the reader allocate ahead of the bytes actually present.
const wireBatch = 1024

// Snapshot writes the collector's durable encoding. The stream is
// self-delimiting: it can be embedded back to back with other streams
// on one writer. Snapshot does not buffer — hand it a *bufio.Writer (or
// equivalent) when writing to a raw file.
func (c *Collector) Snapshot(w io.Writer) error {
	sw, err := snapfmt.NewWriter(w, snapMagic, snapVersion)
	if err != nil {
		return err
	}
	if err := writeMeta(sw, c.total, uint64(c.addrRecs.n)); err != nil {
		return err
	}
	if err := sw.Begin(secAddrs, uint64(c.addrRecs.n)*AddrRecordWire); err != nil {
		return err
	}
	buf := make([]byte, 0, wireBatch*AddrRecordWire)
	if buf, err = c.writeAddrs(sw, buf, 0, c.addrRecs.n); err != nil {
		return err
	}
	if err := endSection(sw, buf); err != nil {
		return err
	}
	return sw.Close()
}

// writeMeta writes the meta section: the given fields as big-endian
// u64s.
func writeMeta(sw *snapfmt.Writer, fields ...uint64) error {
	if err := sw.Begin(secMeta, uint64(len(fields))*8); err != nil {
		return err
	}
	meta := make([]byte, 0, len(fields)*8)
	for _, f := range fields {
		meta = binary.BigEndian.AppendUint64(meta, f)
	}
	if _, err := sw.Write(meta); err != nil {
		return err
	}
	return sw.End()
}

// writeAddrs marshals address records [lo, hi) into the open section
// through buf, writing it out whenever a batch has gathered; it returns
// the unwritten tail for the next run or endSection.
func (c *Collector) writeAddrs(sw *snapfmt.Writer, buf []byte, lo, hi uint32) ([]byte, error) {
	for i := lo; i < hi; i++ {
		e := c.addrRecs.at(i)
		buf = AppendAddrRecord(buf, e.key, e.rec.record())
		if len(buf) >= wireBatch*AddrRecordWire/2 {
			if _, err := sw.Write(buf); err != nil {
				return buf, err
			}
			buf = buf[:0]
		}
	}
	return buf, nil
}

// endSection drains the final partial batch and closes the section.
func endSection(sw *snapfmt.Writer, buf []byte) error {
	if len(buf) > 0 {
		if _, err := sw.Write(buf); err != nil {
			return err
		}
	}
	return sw.End()
}

// Restore is a checkpoint chain being read back: the address slab of
// the base with each delta's blocks overlaid, and nothing else. However
// long the chain, the index is built once, in Collector — so no
// collector exists, whole or partial, until every file has been read
// and checked.
type Restore struct {
	addrTable // the slab; the index is built last, in Collector
	total     uint64
	seq       uint64 // chain position of the last file applied
	buf       []byte // read scratch, wireBatch address records
	err       error  // first damage seen; the restore is dead from then on
}

// ErrStaleDelta is ApplyDelta's error for a well-formed delta that was
// cut against another state than the one restored so far (parent
// sequence, observation total or record count disagree): the leftover
// of a superseded chain, not damage. The restore is untouched and can
// still be finished.
var ErrStaleDelta = errors.New("delta does not extend the restored chain")

// openStream validates a stream header against the one current version
// of its format and version 1.
func openStream(r io.Reader, magic string, current uint32, what string) (*snapfmt.Reader, error) {
	sr, err := snapfmt.NewReader(r, magic)
	if err != nil {
		return nil, fmt.Errorf("collector: %s: %w", what, err)
	}
	if v := sr.Version(); v != current && v != 1 {
		return nil, fmt.Errorf("collector: %s version %d unsupported (have %d)", what, v, current)
	}
	return sr, nil
}

// readMeta fills fields from the meta section. A version-1 meta is
// v1Fields long and starts with the same fields; the rest counted
// derived records and is skipped.
func readMeta(sr *snapfmt.Reader, fields []uint64, v1Fields int) error {
	n := len(fields)
	if sr.Version() == 1 {
		n = v1Fields
	}
	meta := make([]byte, n*8)
	if _, err := sr.Expect(secMeta, uint64(len(meta))); err != nil {
		return err
	}
	if _, err := io.ReadFull(sr, meta); err != nil {
		return fmt.Errorf("meta: %w", err)
	}
	if err := sr.End(); err != nil {
		return fmt.Errorf("meta: %w", err)
	}
	for i := range fields {
		fields[i] = binary.BigEndian.Uint64(meta[i*8:])
	}
	return nil
}

// endStream requires the end marker next. In a version-1 stream the
// derived-state sections up to id lastV1 come first: each is read to
// its end so its CRC is checked — a damaged file stays an error — and
// its payload dropped.
func endStream(sr *snapfmt.Reader, lastV1 uint32) error {
	if sr.Version() == 1 {
		for id := uint32(secAddrs + 1); id <= lastV1; id++ {
			if _, err := sr.Expect(id, snapfmt.AnySize); err != nil {
				return err
			}
			if _, err := io.Copy(io.Discard, sr); err != nil {
				return err
			}
			if err := sr.End(); err != nil {
				return fmt.Errorf("section %d: %w", id, err)
			}
		}
	}
	if _, _, err := sr.Next(); err != io.EOF {
		if err == nil {
			return fmt.Errorf("trailing sections")
		}
		return err
	}
	return nil
}

// NewRestore starts a chain restore by reading its base, a Snapshot
// stream; ApplyDelta reads each delta after it in sequence order, and
// Collector finishes. The restore reads exactly the stream's bytes, so
// further streams may follow on the same reader. Damage of any kind —
// truncation, bit flips, a duplicated address — yields an error, never
// a panic and never a silently corrupt corpus: every section is
// CRC-checked and duplicate keys are rejected during the index rebuild;
// nothing else in the file can disagree with the records, because
// nothing else is in the file. NewRestore does not buffer — hand it a
// *bufio.Reader when reading a raw file.
func NewRestore(base io.Reader) (*Restore, error) {
	sr, err := openStream(base, snapMagic, snapVersion, "snapshot")
	if err != nil {
		return nil, err
	}
	rs := &Restore{buf: make([]byte, wireBatch*AddrRecordWire)}
	if err := rs.readSnapshot(sr); err != nil {
		return nil, fmt.Errorf("collector: snapshot: %w", err)
	}
	return rs, nil
}

func (rs *Restore) readSnapshot(sr *snapfmt.Reader) error {
	var meta [metaFields]uint64
	if err := readMeta(sr, meta[:], metaFieldsV1); err != nil {
		return err
	}
	total, addrN := meta[0], meta[1]
	if addrN > uint64(maxSlabIndex) {
		return fmt.Errorf("count %d exceeds slab addressing", addrN)
	}
	// Bulk slab load. Reading batch by batch bounds allocation by the
	// bytes actually present, no matter what the section size claims.
	if _, err := sr.Expect(secAddrs, addrN*AddrRecordWire); err != nil {
		return err
	}
	if err := rs.readAddrs(sr, 0, addrN); err != nil {
		return fmt.Errorf("addrs: %w", err)
	}
	if err := sr.End(); err != nil {
		return fmt.Errorf("addrs: %w", err)
	}
	rs.total = total
	return endStream(sr, snapLastV1)
}

// readAddrs reads address records [lo, hi) from the open section into
// the slab, lo at most the slab's length. Records past the slab's end
// are appended; one the chain already holds is overwritten and must
// carry the same key, because a record never changes address. A record
// whose times leave the time domain or run backwards (First > Last) is
// damage: no writer emits one, and the slab could not hold it.
func (rs *Restore) readAddrs(sr *snapfmt.Reader, lo, hi uint64) error {
	for lo < hi {
		b := rs.buf[:min(hi-lo, wireBatch)*AddrRecordWire]
		if _, err := io.ReadFull(sr, b); err != nil {
			return err
		}
		for ; len(b) > 0; b, lo = b[AddrRecordWire:], lo+1 {
			key, rec := DecodeAddrRecord(b)
			if !InTimeDomain(rec.First) || !InTimeDomain(rec.Last) || rec.First > rec.Last {
				return fmt.Errorf("record %d spans [%d, %d]: outside the time domain or inverted", lo, rec.First, rec.Last)
			}
			i := uint32(lo)
			if lo >= uint64(rs.addrRecs.n) {
				i = rs.addrRecs.alloc()
			} else if rs.addrRecs.at(i).key != key {
				return fmt.Errorf("block rewrites address key at %d", lo)
			}
			*rs.addrRecs.at(i) = addrEntry{key: key, rec: narrow(rec)}
		}
	}
	return nil
}

// Collector finishes the restore: it indexes the slab, rejecting a
// duplicated address, and the slab and index become the collector. The
// collector sits at the chain position of the last file applied, so
// deltas cut from it extend the chain just read.
func (rs *Restore) Collector() (*Collector, error) {
	if rs.err != nil {
		return nil, rs.err
	}
	rs.err = errors.New("collector: restore already finished")
	if err := rs.rebuildIndex(); err != nil {
		return nil, fmt.Errorf("collector: snapshot: %w", err)
	}
	c := &Collector{addrTable: rs.addrTable, total: rs.total}
	c.markClean(rs.seq)
	return c, nil
}

// tableSizeFor returns the power-of-two slot count that holds n entries
// under the 3/4 load-factor bound.
func tableSizeFor(n uint64) int {
	size := tableInit
	for growTable(n, size) {
		size *= 2
	}
	return size
}

// rebuildIndex builds the open-addressing table over a loaded slab,
// sized once for the final count — the compaction restore buys over a
// live, grown-in-place table — and performs the one structural check a
// CRC cannot: a duplicated key is rejected.
//
// The keys go in in slab order, so the slab is read sequentially; a
// probe compares slot tags first and reads a colliding record only on a
// tag match — a genuine duplicate, or by chance one in 128 of the
// slots it passes.
func (t *addrTable) rebuildIndex() error {
	n := t.addrRecs.n
	slots := tableSizeFor(uint64(n))
	t.addrTag, t.addrIdx = make([]uint8, slots), make([]uint32, slots)
	for i := uint32(0); i < n; i++ {
		key := t.addrRecs.at(i).key
		h := key.Hash64()
		j, slot, dup := t.findAddr(key, h)
		if dup {
			return fmt.Errorf("duplicate address at slab %d and %d", j, i)
		}
		t.addrTag[slot], t.addrIdx[slot] = hashTag(h), i
	}
	return nil
}
