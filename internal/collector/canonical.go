package collector

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"iter"
	"slices"

	"hitlist6/internal/addr"
)

// canonKey is one extracted sort key: the 128-bit value a record orders
// by (IIDs leave hi zero) and the slab reference it stands for. Keys are
// pulled out of the slabs once, so the sort never chases a slab pointer.
type canonKey struct {
	hi, lo uint64
	ref    uint32
}

// sortCanonKeys orders keys ascending by (hi, lo): a byte-wise LSD radix
// sort — one sweep histograms all 16 digits, then each digit that
// actually varies gets one stable scatter between keys and tmp (same
// length). Digits every key shares (an IID's zero hi, a corpus's common
// prefix bytes) cost nothing. The result is whichever of the two slices
// the last scatter landed in.
func sortCanonKeys(keys, tmp []canonKey) []canonKey {
	var hist [16][256]uint32
	for i := range keys {
		k := &keys[i]
		for b := 0; b < 8; b++ {
			hist[b][byte(k.lo>>(8*b))]++
			hist[8+b][byte(k.hi>>(8*b))]++
		}
	}
	n := uint32(len(keys))
	for d := range hist {
		h := &hist[d]
		if slices.Contains(h[:], n) {
			continue // one bucket holds every key
		}
		sum := uint32(0)
		for v, cnt := range h {
			h[v], sum = sum, sum+cnt
		}
		shift := 8 * uint(d&7)
		for _, k := range keys {
			w := k.lo
			if d >= 8 {
				w = k.hi
			}
			v := byte(w >> shift)
			tmp[h[v]] = k
			h[v]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// sortAddrs is sortCanonKeys over bare addresses: the same byte-wise
// LSD radix sort, digit 15 (the last address byte) first, skipping the
// digits every address shares.
func sortAddrs(keys, tmp []addr.Addr) []addr.Addr {
	var hist [16][256]uint32
	for i := range keys {
		for b, v := range &keys[i] {
			hist[b][v]++
		}
	}
	n := uint32(len(keys))
	for b := 15; b >= 0; b-- {
		h := &hist[b]
		if slices.Contains(h[:], n) {
			continue
		}
		sum := uint32(0)
		for v, cnt := range h {
			h[v], sum = sum, sum+cnt
		}
		for _, k := range keys {
			tmp[h[k[b]]] = k
			h[k[b]]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// SortedAddrs returns every observed address in canonical order, in a
// new slice of exactly NumAddrs entries: the slab's keys, copied once
// and radix-sorted against one scratch slice of the same size.
func (c *Collector) SortedAddrs() []addr.Addr {
	keys := make([]addr.Addr, c.addrRecs.n)
	for i := range keys {
		keys[i] = c.addrRecs.at(uint32(i)).key
	}
	return sortAddrs(keys, make([]addr.Addr, len(keys)))
}

// sortedAddrIdx returns the address slab indices in canonical order
// (ascending by the 128-bit address value).
func (c *Collector) sortedAddrIdx() []uint32 {
	keys := make([]canonKey, 0, c.addrRecs.n)
	return c.sortAddrKeys(c.appendAddrKeys(keys, 0, c.addrRecs.n))
}

// appendAddrKeys appends the sort keys of slab records [lo, hi).
func (c *Collector) appendAddrKeys(keys []canonKey, lo, hi uint32) []canonKey {
	for i := lo; i < hi; i++ {
		a := &c.addrRecs.at(i).key
		keys = append(keys, canonKey{binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(a[8:]), i})
	}
	return keys
}

// sortAddrKeys sorts address keys and returns their slab indices in
// that order.
func (c *Collector) sortAddrKeys(keys []canonKey) []uint32 {
	keys = sortCanonKeys(keys, make([]canonKey, len(keys)))
	idx := make([]uint32, len(keys))
	for i, k := range keys {
		idx[i] = k.ref
	}
	return idx
}

// sortedIIDRefs returns every IID (promoted and singleton) as a key
// whose lo is the IID and whose ref is its table reference, in
// ascending IID order.
func (t *IIDTable) sortedIIDRefs() []canonKey {
	keys := make([]canonKey, 0, t.iidUsed)
	for _, v := range t.iidIdx {
		if v == 0 {
			continue
		}
		keys = append(keys, canonKey{lo: uint64(t.iidKeyOf(v - 1)), ref: v - 1})
	}
	return sortCanonKeys(keys, make([]canonKey, len(keys)))
}

// CanonicalOrder computes the canonical address order (ascending by
// address value) once and returns a walk over it that can run any
// number of times — the tier writer's directory and chunk passes share
// one. The walk reads the collector's slab: valid until the next write.
func (c *Collector) CanonicalOrder() iter.Seq2[addr.Addr, AddrRecord] {
	return c.walkIdx(c.sortedAddrIdx())
}

// LastDeltaOrder is CanonicalOrder restricted to the slab blocks the
// last delta checkpoint carried (see MarkCheckpointedDelta), with the
// number of records the walk yields: the content of one tier run. Each
// block is read up to the slab count at that checkpoint, with the
// values the records hold now — a record mutated since is dirty for the
// next delta too, so a later run carries it again, never staler.
func (c *Collector) LastDeltaOrder() (iter.Seq2[addr.Addr, AddrRecord], int) {
	var keys []canonKey
	for _, bl := range deltaBlocks(c.ckpt.lastBase, c.ckpt.lastN, &c.ckpt.lastDirty) {
		keys = c.appendAddrKeys(keys, bl.lo, bl.hi)
	}
	idx := c.sortAddrKeys(keys)
	return c.walkIdx(idx), len(idx)
}

// walkIdx walks the slab records at idx, in that order.
func (c *Collector) walkIdx(idx []uint32) iter.Seq2[addr.Addr, AddrRecord] {
	return func(yield func(addr.Addr, AddrRecord) bool) {
		for _, i := range idx {
			if e := c.addrRecs.at(i); !yield(e.key, e.rec) {
				return
			}
		}
	}
}

// canonFlush is how many encoded bytes WriteCanonical gathers between
// writes: large enough that the writer (a hash, a file) sees long runs,
// small enough that a checksum never holds the corpus twice.
const canonFlush = 1 << 16

// WriteCanonical writes a deterministic binary encoding of the corpus:
// every (address, record) pair sorted by address, then every (IID,
// record) pair sorted by IID with per-/64 spans sorted by prefix. Two
// collectors hold identical observations if and only if their canonical
// encodings are byte-identical — regardless of insertion order, shard
// count, merge schedule or storage layout (the encoding predates the
// flat-slab engine and is pinned by a golden-checksum test). This is the
// ground truth the sharded-ingest equivalence tests assert on. The IID
// half is read from an IIDTable built for the call.
func (c *Collector) WriteCanonical(w io.Writer) (err error) {
	buf := make([]byte, 0, canonFlush+1024)
	buf = binary.BigEndian.AppendUint64(buf, c.total)

	addrIdx := c.sortedAddrIdx()
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(addrIdx)))
	for _, ri := range addrIdx {
		e := c.addrRecs.at(ri)
		buf = append(buf, e.key[:]...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.rec.First))
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.rec.Last))
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.rec.Count))
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.rec.Servers))
		if buf, err = spill(buf, w); err != nil {
			return err
		}
	}

	if buf, err = c.IIDTable().appendCanonicalIIDs(buf, w); err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// spill hands buf to w once it holds canonFlush bytes and starts it
// again.
func spill(buf []byte, w io.Writer) ([]byte, error) {
	if len(buf) < canonFlush {
		return buf, nil
	}
	_, err := w.Write(buf)
	return buf[:0], err
}

// appendCanonicalIIDs encodes the IID half onto buf, spilling into w as
// it goes (see spill) and returning the unwritten tail.
func (t *IIDTable) appendCanonicalIIDs(buf []byte, w io.Writer) (_ []byte, err error) {
	iids := t.sortedIIDRefs()
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(iids)))
	var p64s []spanNode // scratch, reused across IIDs
	for _, p := range iids {
		if buf, err = spill(buf, w); err != nil {
			return nil, err
		}
		v := IIDView{t: t, ref: p.ref}
		first, last, count := v.summary()
		buf = binary.BigEndian.AppendUint64(buf, p.lo)
		buf = binary.BigEndian.AppendUint64(buf, uint64(first))
		buf = binary.BigEndian.AppendUint64(buf, uint64(last))
		buf = binary.BigEndian.AppendUint64(buf, uint64(count))
		r := v.promoted()
		if r == nil || r.spans == spanNone {
			// Untracked IIDs encode as the seed layout's nil span map.
			buf = binary.BigEndian.AppendUint64(buf, 0xffffffffffffffff)
			continue
		}
		p64s = p64s[:0]
		for i := r.spans; i != spanNone; {
			n := t.spans.at(i)
			p64s = append(p64s, *n)
			i = n.next
		}
		slices.SortFunc(p64s, func(a, b spanNode) int { return cmp.Compare(a.p64, b.p64) })
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(p64s)))
		for _, n := range p64s {
			buf = binary.BigEndian.AppendUint64(buf, uint64(n.p64))
			buf = binary.BigEndian.AppendUint64(buf, uint64(n.first))
			buf = binary.BigEndian.AppendUint64(buf, uint64(n.last))
		}
	}
	return buf, nil
}

// Checksum returns the SHA-256 of the canonical encoding: a compact
// fingerprint for asserting two corpora are observation-identical.
func (c *Collector) Checksum() [32]byte {
	h := sha256.New()
	// sha256.Write never fails; WriteCanonical only surfaces its writer's
	// errors.
	_ = c.WriteCanonical(h)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
