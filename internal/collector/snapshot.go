package collector

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"hitlist6/internal/snapfmt"
)

// The snapshot format is the collector's durable form: the record
// arenas, the promoted-IID arena, the span slab and the singleton-IID
// reference list, written as length-prefixed CRC-checked sections (see
// internal/snapfmt). The slabs go out verbatim — same entries, same
// indices — so restore is a bulk slab load plus an index-table rebuild,
// not N re-inserts: span chains and singleton references stay valid
// as written, and the open-addressing tables (which the snapshot omits;
// that is the compaction) are rebuilt once, sized exactly for the
// restored record counts. The invariant pinned by the golden fixture
// and the round-trip fuzz target: a restored collector's Checksum
// equals the original's.
//
// Version history:
//
//	1: sections meta(1), addrs(2), iids(3), spans(4), singletons(5),
//	   p48s(6), p64s(7).
//
// Unknown versions and unknown/missing/reordered sections are errors —
// a reader never guesses at a corpus. The prefix-set sections carry
// derived data (recomputable from the address slab) purely as a
// restore-speed trade: loading ~10^5 distinct prefixes beats
// re-deriving them with two set inserts per address.
//
//lint:durable-path snapshots are the collector's crash-recovery state
const (
	snapMagic   = "h6corps1"
	snapVersion = 1

	secMeta       = 1
	secAddrs      = 2
	secIIDs       = 3
	secSpans      = 4
	secSingletons = 5
	secP48s       = 6
	secP64s       = 7

	// Sizes of what is not a slab entry (those are wire.go's).
	metaWire      = 40 // total, addrN, iidN, spanN, singletonN
	singletonWire = 4  // address-slab index u32
	prefixWire    = 8  // prefix u64, strictly ascending

	// maxSlabIndex bounds every slab count a snapshot may declare:
	// indices are uint32s with the top bit reserved for promotedTag and
	// +1 biasing in the tables.
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

	singletons := c.iidUsed - c.iidRecs.n

	if err := sw.Begin(secMeta, metaWire); err != nil {
		return err
	}
	var meta [metaWire]byte
	binary.BigEndian.PutUint64(meta[0:], c.total)
	binary.BigEndian.PutUint64(meta[8:], uint64(c.addrRecs.n))
	binary.BigEndian.PutUint64(meta[16:], uint64(c.iidRecs.n))
	binary.BigEndian.PutUint64(meta[24:], uint64(c.spans.n))
	binary.BigEndian.PutUint64(meta[32:], uint64(singletons))
	if _, err := sw.Write(meta[:]); err != nil {
		return err
	}
	if err := sw.End(); err != nil {
		return err
	}

	buf := make([]byte, 0, wireBatch*AddrRecordWire)

	if err := sw.Begin(secAddrs, uint64(c.addrRecs.n)*AddrRecordWire); err != nil {
		return err
	}
	for i := uint32(0); i < c.addrRecs.n; i++ {
		e := c.addrRecs.at(i)
		buf = AppendAddrRecord(buf, e.key, e.rec)
		if buf = flushBatch(sw, buf, &err); err != nil {
			return err
		}
	}
	if err := endSection(sw, buf); err != nil {
		return err
	}

	buf = buf[:0]
	if err := sw.Begin(secIIDs, uint64(c.iidRecs.n)*iidEntryWire); err != nil {
		return err
	}
	for i := uint32(0); i < c.iidRecs.n; i++ {
		buf = appendIIDEntry(buf, c.iidRecs.at(i))
		if buf = flushBatch(sw, buf, &err); err != nil {
			return err
		}
	}
	if err := endSection(sw, buf); err != nil {
		return err
	}

	buf = buf[:0]
	if err := sw.Begin(secSpans, uint64(c.spans.n)*spanEntryWire); err != nil {
		return err
	}
	for i := uint32(0); i < c.spans.n; i++ {
		buf = appendSpanNode(buf, c.spans.at(i))
		if buf = flushBatch(sw, buf, &err); err != nil {
			return err
		}
	}
	if err := endSection(sw, buf); err != nil {
		return err
	}

	buf = buf[:0]
	if err := sw.Begin(secSingletons, uint64(singletons)*singletonWire); err != nil {
		return err
	}
	for _, v := range c.iidIdx {
		if v == 0 || (v-1)&promotedTag != 0 {
			continue
		}
		buf = binary.BigEndian.AppendUint32(buf, v-1)
		if buf = flushBatch(sw, buf, &err); err != nil {
			return err
		}
	}
	if err := endSection(sw, buf); err != nil {
		return err
	}

	if err := writePrefixSet(sw, secP48s, &c.p48s); err != nil {
		return err
	}
	if err := writePrefixSet(sw, secP64s, &c.p64s); err != nil {
		return err
	}

	return sw.Close()
}

// writePrefixSet encodes one distinct-prefix set as a strictly
// ascending u64 list (sorted for determinism and so the reader can
// reject duplicates by ordering alone).
func writePrefixSet(sw *snapfmt.Writer, id uint32, s *u64set) error {
	vals := make([]uint64, 0, s.len())
	s.each(func(v uint64) { vals = append(vals, v) })
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if err := sw.Begin(id, uint64(len(vals))*prefixWire); err != nil {
		return err
	}
	buf := make([]byte, 0, wireBatch*AddrRecordWire)
	var err error
	for _, v := range vals {
		buf = binary.BigEndian.AppendUint64(buf, v)
		if buf = flushBatch(sw, buf, &err); err != nil {
			return err
		}
	}
	return endSection(sw, buf)
}

// flushBatch writes buf through when it reaches the batch size,
// returning the (possibly reset) buffer; on error it parks the error in
// *errp for the caller's guard clause.
func flushBatch(sw *snapfmt.Writer, buf []byte, errp *error) []byte {
	if len(buf) < wireBatch*AddrRecordWire/2 {
		return buf
	}
	if _, err := sw.Write(buf); err != nil {
		*errp = err
		return buf
	}
	return buf[:0]
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

// OpenSnapshot restores a collector from a Snapshot stream. It reads
// exactly the stream's bytes, so further streams may follow on the same
// reader. Damage of any kind — truncation, bit flips, structural lies —
// yields an error, never a panic and never a silently corrupt corpus:
// every section is CRC-checked, every slab reference is bounds-checked,
// span chains are walked for exact node accounting, and duplicate keys
// are rejected during the index rebuild. OpenSnapshot does not buffer —
// hand it a *bufio.Reader when reading a raw file.
func OpenSnapshot(r io.Reader) (*Collector, error) {
	sr, err := snapfmt.NewReader(r, snapMagic)
	if err != nil {
		return nil, fmt.Errorf("collector: snapshot: %w", err)
	}
	if v := sr.Version(); v != snapVersion {
		return nil, fmt.Errorf("collector: snapshot version %d unsupported (have %d)", v, snapVersion)
	}

	// meta
	if _, err := sr.Expect(secMeta, metaWire); err != nil {
		return nil, fmt.Errorf("collector: snapshot: %w", err)
	}
	var meta [metaWire]byte
	if _, err := io.ReadFull(sr, meta[:]); err != nil {
		return nil, fmt.Errorf("collector: snapshot meta: %w", err)
	}
	if err := sr.End(); err != nil {
		return nil, fmt.Errorf("collector: snapshot meta: %w", err)
	}
	total := binary.BigEndian.Uint64(meta[0:])
	addrN := binary.BigEndian.Uint64(meta[8:])
	iidN := binary.BigEndian.Uint64(meta[16:])
	spanN := binary.BigEndian.Uint64(meta[24:])
	singleN := binary.BigEndian.Uint64(meta[32:])
	if addrN > uint64(maxSlabIndex) || iidN > uint64(maxSlabIndex) || spanN > uint64(maxSlabIndex) {
		return nil, fmt.Errorf("collector: snapshot counts %d/%d/%d exceed slab addressing", addrN, iidN, spanN)
	}
	if singleN > addrN {
		return nil, fmt.Errorf("collector: snapshot declares %d singleton IIDs over %d addresses", singleN, addrN)
	}

	c := New()
	c.total = total

	// addrs: bulk slab load. Reading batch-by-batch bounds allocation by
	// the bytes actually present, no matter what the section size claims.
	if _, err := sr.Expect(secAddrs, addrN*AddrRecordWire); err != nil {
		return nil, fmt.Errorf("collector: snapshot: %w", err)
	}
	buf := make([]byte, wireBatch*AddrRecordWire)
	if err := readEntries(sr, buf, addrN, AddrRecordWire, func(b []byte) error {
		e := c.addrRecs.at(c.addrRecs.alloc())
		e.key, e.rec = DecodeAddrRecord(b)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("collector: snapshot addrs: %w", err)
	}

	// promoted IIDs
	if _, err := sr.Expect(secIIDs, iidN*iidEntryWire); err != nil {
		return nil, fmt.Errorf("collector: snapshot: %w", err)
	}
	if err := readEntries(sr, buf, iidN, iidEntryWire, func(b []byte) error {
		e, err := decodeIIDEntry(b, spanN)
		if err != nil {
			return fmt.Errorf("IID %d %w", c.iidRecs.n, err)
		}
		*c.iidRecs.at(c.iidRecs.alloc()) = e
		return nil
	}); err != nil {
		return nil, fmt.Errorf("collector: snapshot iids: %w", err)
	}

	// span slab
	if _, err := sr.Expect(secSpans, spanN*spanEntryWire); err != nil {
		return nil, fmt.Errorf("collector: snapshot: %w", err)
	}
	if err := readEntries(sr, buf, spanN, spanEntryWire, func(b []byte) error {
		n, err := decodeSpanNode(b, spanN)
		if err != nil {
			return fmt.Errorf("span %d %w", c.spans.n, err)
		}
		*c.spans.at(c.spans.alloc()) = n
		return nil
	}); err != nil {
		return nil, fmt.Errorf("collector: snapshot spans: %w", err)
	}

	// singleton references
	if _, err := sr.Expect(secSingletons, singleN*singletonWire); err != nil {
		return nil, fmt.Errorf("collector: snapshot: %w", err)
	}
	singles := make([]uint32, 0, min(singleN, wireBatch))
	if err := readEntries(sr, buf, singleN, singletonWire, func(b []byte) error {
		ref := binary.BigEndian.Uint32(b)
		if uint64(ref) >= addrN {
			return fmt.Errorf("singleton reference %d out of %d addresses", ref, addrN)
		}
		singles = append(singles, ref)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("collector: snapshot singletons: %w", err)
	}

	if err := readPrefixSet(sr, buf, secP48s, &c.p48s); err != nil {
		return nil, fmt.Errorf("collector: snapshot p48s: %w", err)
	}
	if err := readPrefixSet(sr, buf, secP64s, &c.p64s); err != nil {
		return nil, fmt.Errorf("collector: snapshot p64s: %w", err)
	}

	if _, _, err := sr.Next(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("collector: snapshot carries trailing sections")
		}
		return nil, fmt.Errorf("collector: snapshot end: %w", err)
	}

	if err := c.rebuildIndexes(singles); err != nil {
		return nil, fmt.Errorf("collector: snapshot: %w", err)
	}
	// The restored state IS the checkpoint at chain position 0: deltas
	// written from here chain onto the snapshot just read.
	c.markClean(0)
	return c, nil
}

// readPrefixSet loads one strictly-ascending prefix list into a fresh
// set.
func readPrefixSet(sr *snapfmt.Reader, scratch []byte, id uint32, s *u64set) error {
	size, err := sr.Expect(id, snapfmt.AnySize)
	if err != nil {
		return err
	}
	if size%prefixWire != 0 {
		return fmt.Errorf("section size %d not a multiple of %d", size, prefixWire)
	}
	first := true
	var prev uint64
	return readEntries(sr, scratch, size/prefixWire, prefixWire, func(b []byte) error {
		v := binary.BigEndian.Uint64(b)
		if !first && v <= prev {
			return fmt.Errorf("prefixes not strictly ascending (%d after %d)", v, prev)
		}
		first, prev = false, v
		s.insert(v)
		return nil
	})
}

// readEntries streams n fixed-size entries through fn in batches using
// scratch (sized for wireBatch addr entries) as the read buffer.
func readEntries(sr *snapfmt.Reader, scratch []byte, n uint64, entry int, fn func(b []byte) error) error {
	per := uint64(len(scratch)) / uint64(entry)
	for done := uint64(0); done < n; {
		batch := min(n-done, per)
		b := scratch[:batch*uint64(entry)]
		if _, err := io.ReadFull(sr, b); err != nil {
			return err
		}
		for k := uint64(0); k < batch; k++ {
			if err := fn(b[k*uint64(entry) : (k+1)*uint64(entry)]); err != nil {
				return err
			}
		}
		done += batch
	}
	return sr.End()
}

// radixSortU32 sorts in place by two 16-bit digit passes: O(n) where
// sort.Slice's comparison sort would rival the whole index rebuild at
// corpus scale.
func radixSortU32(v []uint32) {
	if len(v) < 64 {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		return
	}
	tmp := make([]uint32, len(v))
	var count [1 << 16]uint32
	for shift := 0; shift <= 16; shift += 16 {
		for i := range count {
			count[i] = 0
		}
		for _, x := range v {
			count[(x>>shift)&0xffff]++
		}
		pos := uint32(0)
		for i, n := range count {
			count[i] = pos
			pos += n
		}
		for _, x := range v {
			d := (x >> shift) & 0xffff
			tmp[count[d]] = x
			count[d]++
		}
		v, tmp = tmp, v
	}
	// Two swaps: the sorted data is back in the caller's slice.
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

// rebuildIndexes reconstructs everything the snapshot omits from the
// loaded slabs: the address and IID open-addressing tables (sized once
// for the final counts — the compaction restore buys over a live,
// grown-in-place table), the prefix sets, and iidUsed. It also performs
// the structural validation that CRCs cannot: duplicate keys and span
// chains that share, cycle or leak nodes are all rejected.
//
// The rebuild is the bulk of restore time, so its memory behaviour is
// deliberate: one sequential pass streams every key's hashes into flat
// scratch arrays (L3-resident even for tens of millions of records),
// and the insert loops then resolve probe collisions by comparing
// those hashes instead of the colliding records' keys — the slabs,
// which dwarf every cache, are only touched again on a full 64-bit
// hash match (a genuine duplicate, or a one-in-2^64 coincidence).
// Without this, every probe collision is a cold random read into the
// record slab and the rebuild runs several times slower.
func (c *Collector) rebuildIndexes(singles []uint32) error {
	addrN := c.addrRecs.n
	// Sequential hash pass. The prefix sets arrived in their own
	// sections (derived data, traded for restore speed); a strided
	// sample of addresses — every address in small corpora — is checked
	// against them so a snapshot whose sets disagree with its own
	// records is rejected.
	sampleStep := uint32(1)
	if addrN > 4096 {
		sampleStep = addrN / 4096
	}
	addrHash := make([]uint64, addrN)
	addrIIDHash := make([]uint64, addrN) // mix64 of each address's IID
	for i := uint32(0); i < addrN; i++ {
		key := c.addrRecs.at(i).key
		addrHash[i] = key.Hash64()
		addrIIDHash[i] = mix64(uint64(key.IID()))
		if i%sampleStep == 0 {
			if !c.p48s.contains(uint64(key.P48())) || !c.p64s.contains(uint64(key.P64())) {
				return fmt.Errorf("prefix sets omit address %d's prefixes", i)
			}
		}
	}

	c.addrIdx = make([]uint32, tableSizeFor(uint64(addrN)))
	mask := uint64(len(c.addrIdx) - 1)
	for i := uint32(0); i < addrN; i++ {
		h := addrHash[i]
		pos := h & mask
		for {
			v := c.addrIdx[pos]
			if v == 0 {
				c.addrIdx[pos] = i + 1
				break
			}
			if addrHash[v-1] == h && c.addrRecs.at(v-1).key == c.addrRecs.at(i).key {
				return fmt.Errorf("duplicate address at slab %d and %d", v-1, i)
			}
			pos = (pos + 1) & mask
		}
	}

	iidHash := make([]uint64, c.iidRecs.n)
	for i := uint32(0); i < c.iidRecs.n; i++ {
		iidHash[i] = mix64(uint64(c.iidRecs.at(i).key))
	}
	hashOfRef := func(ref uint32) uint64 {
		if ref&promotedTag != 0 {
			return iidHash[ref&^promotedTag]
		}
		return addrIIDHash[ref]
	}

	c.iidIdx = make([]uint32, tableSizeFor(uint64(c.iidRecs.n)+uint64(len(singles))))
	mask = uint64(len(c.iidIdx) - 1)
	insertIID := func(ref uint32, h uint64) error {
		pos := h & mask
		for {
			v := c.iidIdx[pos]
			if v == 0 {
				c.iidIdx[pos] = ref + 1
				c.iidUsed++
				return nil
			}
			if hashOfRef(v-1) == h && c.iidKeyOf(v-1) == c.iidKeyOf(ref) {
				return fmt.Errorf("duplicate IID %016x", uint64(c.iidKeyOf(ref)))
			}
			pos = (pos + 1) & mask
		}
	}
	for i := uint32(0); i < c.iidRecs.n; i++ {
		if err := insertIID(i|promotedTag, iidHash[i]); err != nil {
			return err
		}
	}
	// Singletons arrive in table-slot order — effectively random — so
	// their addrIIDHash reads would be scattered; ref-sorting them makes
	// that array access a forward stream. Insert order cannot change the
	// outcome (duplicates are errors either way).
	radixSortU32(singles)
	for _, ref := range singles {
		if err := insertIID(ref, addrIIDHash[ref]); err != nil {
			return err
		}
	}

	return c.validateSpans()
}

// validateSpans performs the span-chain accounting restore paths rely
// on: every span node belongs to exactly one promoted IID's chain,
// every chain is acyclic and in-bounds, and each entry's p64n matches
// its chain length. Together with per-entry bounds checks at load time
// this makes every reachable spans.at call safe. Shared by the full
// snapshot rebuild and the delta apply path.
func (c *Collector) validateSpans() error {
	visited := make([]bool, c.spans.n)
	accounted := uint32(0)
	for i := uint32(0); i < c.iidRecs.n; i++ {
		e := c.iidRecs.at(i)
		length := uint32(0)
		for si := e.spans; si != spanNone; si = c.spans.at(si).next {
			if si >= c.spans.n {
				return fmt.Errorf("IID %016x chains span %d out of %d", uint64(e.key), si, c.spans.n)
			}
			if visited[si] {
				return fmt.Errorf("span %d shared or cyclic in IID %016x's chain", si, uint64(e.key))
			}
			visited[si] = true
			length++
		}
		if length != e.p64n {
			return fmt.Errorf("IID %016x chains %d spans but declares %d", uint64(e.key), length, e.p64n)
		}
		accounted += length
	}
	if accounted != c.spans.n {
		return fmt.Errorf("%d span nodes unreachable from any IID", c.spans.n-accounted)
	}
	return nil
}
