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

// iidKey is one extracted IID sort key: the IID and the table
// reference it stands for. Keys are pulled out of the table once, so the
// sort never chases a slab pointer.
type iidKey struct {
	iid uint64
	ref uint32
}

// sortIIDKeys orders keys ascending by IID: a byte-wise LSD radix sort —
// one sweep histograms all 8 digits, then each digit that actually
// varies gets one stable scatter between keys and tmp (same length).
// Digits every key shares cost nothing. The result is whichever of the
// two slices the last scatter landed in.
func sortIIDKeys(keys, tmp []iidKey) []iidKey {
	var hist [8][256]uint32
	for i := range keys {
		for b := range hist {
			hist[b][byte(keys[i].iid>>(8*b))]++
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
		for _, k := range keys {
			v := byte(k.iid >> (8 * d))
			tmp[h[v]] = k
			h[v]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// sortAddrs is sortIIDKeys over bare addresses: the same byte-wise LSD
// radix sort, digit 15 (the last address byte) first, skipping the
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

// sortedIIDRefs returns every IID (promoted and singleton) as a key
// with its table reference, in ascending IID order.
func (t *IIDTable) sortedIIDRefs() []iidKey {
	keys := make([]iidKey, 0, t.iidUsed)
	for _, v := range t.iidIdx {
		if v == 0 {
			continue
		}
		keys = append(keys, iidKey{uint64(t.iidKeyOf(v - 1)), v - 1})
	}
	return sortIIDKeys(keys, make([]iidKey, len(keys)))
}

// CanonicalOrder is the canonical address order (ascending by address
// value) over a copy of c's records (see Records.CanonicalOrder): a
// walk that can run any number of times — the tier writer's directory
// and chunk passes share one — and stays valid after c is next written.
func (c *Collector) CanonicalOrder() iter.Seq2[addr.Addr, AddrRecord] {
	return c.CopyRecords().CanonicalOrder()
}

// Records is a copy of a corpus's address records and observation
// total: taken under the corpus's lock at 32 bytes a record (the slab's
// addrEntry), sorted and encoded after it is released.
type Records struct {
	recs  []addrEntry
	total uint64
}

// CopyRecords copies c's address records, in slab order, and its total.
func (c *Collector) CopyRecords() *Records {
	r := &Records{recs: make([]addrEntry, c.addrRecs.n), total: c.total}
	n := copy(r.recs, c.addrRecs.head)
	for _, ch := range c.addrRecs.chunks {
		n += copy(r.recs[n:], ch)
	}
	return r
}

// LastDeltaRecords copies the records of the slab blocks the last delta
// checkpoint carried (see MarkCheckpointedDelta), and c's total: the
// content of one tier run. Each block is read up to the slab count at
// that checkpoint, with the values the records hold now — a record
// mutated since is dirty for the next delta too, so a later run carries
// it again, never staler.
func (c *Collector) LastDeltaRecords() *Records {
	blocks := deltaBlocks(c.ckpt.lastBase, c.ckpt.lastN, &c.ckpt.lastDirty)
	r := &Records{recs: make([]addrEntry, 0, len(blocks)<<deltaBlockBits), total: c.total}
	for _, bl := range blocks {
		for i := bl.lo; i < bl.hi; i++ {
			r.recs = append(r.recs, *c.addrRecs.at(i))
		}
	}
	return r
}

// NumAddrs returns the number of records copied.
func (r *Records) NumAddrs() int { return len(r.recs) }

// TotalObservations returns the copied corpus's raw sighting count.
func (r *Records) TotalObservations() uint64 { return r.total }

// CanonicalOrder sorts the copy by address, in place, and returns a
// walk over it that can run any number of times.
func (r *Records) CanonicalOrder() iter.Seq2[addr.Addr, AddrRecord] {
	sortEntries(r.recs, 0)
	return func(yield func(addr.Addr, AddrRecord) bool) {
		for i := range r.recs {
			if e := &r.recs[i]; !yield(e.key, e.rec.record()) {
				return
			}
		}
	}
}

// sortEntries sorts recs ascending by address, in place, given that
// they agree on the key bytes before d: an MSD radix sort (American
// flag sort), one counting pass and one 256-way in-place partition per
// key byte, recursing into each bucket on the next byte, and insertion
// sort once a bucket is small. A byte every record shares costs the
// counting pass alone.
func sortEntries(recs []addrEntry, d int) {
	for ; len(recs) > 32 && d < len(addr.Addr{}); d++ {
		var count [256]int
		for i := range recs {
			count[recs[i].key[d]]++
		}
		if count[recs[0].key[d]] == len(recs) {
			continue
		}
		var next, end [256]int
		sum := 0
		for v, n := range count {
			next[v], sum = sum, sum+n
			end[v] = sum
		}
		for v := range next {
			for next[v] < end[v] {
				w := recs[next[v]].key[d]
				if int(w) == v {
					next[v]++
					continue
				}
				recs[next[v]], recs[next[w]] = recs[next[w]], recs[next[v]]
				next[w]++
			}
		}
		lo := 0
		for _, hi := range end {
			if hi-lo > 1 {
				sortEntries(recs[lo:hi], d+1)
			}
			lo = hi
		}
		return
	}
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].key.Less(recs[j-1].key); j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
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

	buf = binary.BigEndian.AppendUint64(buf, uint64(c.addrRecs.n))
	for a, r := range c.CanonicalOrder() {
		buf = append(buf, a[:]...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.First))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Last))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Count))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Servers))
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
		buf = binary.BigEndian.AppendUint64(buf, p.iid)
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
