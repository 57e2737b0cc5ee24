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

// CanonicalOrder is Records.CanonicalOrder over a copy of c's records:
// it stays valid after c is next written.
func (c *Collector) CanonicalOrder() iter.Seq2[addr.Addr, AddrRecord] {
	return c.CopyRecords().CanonicalOrder()
}

// Records is a corpus's address records as two columns — recs[i] is the
// record of keys[i] — and its total: 32 bytes a record, no index.
// CopyRecords and LastDeltaRecords copy one under the corpus's lock, in
// slab order, to be sorted and encoded after it is released; TakeRecords
// moves a closed corpus into one. A Records is sorted at most once and
// never reordered, so its IIDTable and the column Keys hands out stay
// valid.
type Records struct {
	keys   []addr.Addr
	recs   []slabRec
	total  uint64
	sorted bool
}

func newRecords(n int, total uint64) *Records {
	return &Records{keys: make([]addr.Addr, 0, n), recs: make([]slabRec, 0, n), total: total}
}

// add appends slab entries to the columns.
func (r *Records) add(es ...addrEntry) {
	for i := range es {
		r.keys = append(r.keys, es[i].key)
		r.recs = append(r.recs, es[i].rec)
	}
}

// CopyRecords copies c's address records, in slab order, and its total.
func (c *Collector) CopyRecords() *Records {
	r := newRecords(int(c.addrRecs.n), c.total)
	r.add(c.addrRecs.head...)
	for _, ch := range c.addrRecs.chunks {
		r.add(ch...)
	}
	return r
}

// TakeRecords moves c's records and total into a Records, sorted, and
// leaves c empty. The index goes first and each slab chunk is released
// once copied, so the move never holds the corpus twice over.
func (c *Collector) TakeRecords() *Records {
	c.addrTag, c.addrIdx = nil, nil
	s := &c.addrRecs
	r := newRecords(int(s.n), c.total)
	r.add(s.head...)
	s.head = nil
	for i, ch := range s.chunks {
		r.add(ch...)
		s.chunks[i] = nil
	}
	*c = Collector{}
	r.sort()
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
	r := newRecords(len(blocks)<<deltaBlockBits, c.total)
	for _, bl := range blocks {
		for i := bl.lo; i < bl.hi; i++ {
			r.add(*c.addrRecs.at(i))
		}
	}
	return r
}

// NumAddrs returns the number of records held.
func (r *Records) NumAddrs() int { return len(r.keys) }

// TotalObservations returns the corpus's raw sighting count.
func (r *Records) TotalObservations() uint64 { return r.total }

// Keys returns the address column in canonical order: r's own slice,
// its capacity cut to its length so that an append reallocates instead
// of writing it. Nothing may write the column; r's IIDTable reads it.
func (r *Records) Keys() []addr.Addr {
	r.sort()
	return r.keys[:len(r.keys):len(r.keys)]
}

// CanonicalOrder sorts r by address, in place, and returns a walk over
// it that can run any number of times.
func (r *Records) CanonicalOrder() iter.Seq2[addr.Addr, AddrRecord] {
	r.sort()
	return func(yield func(addr.Addr, AddrRecord) bool) { r.AddrsRange(0, len(r.keys), yield) }
}

// sort puts r in canonical order, once.
func (r *Records) sort() {
	if !r.sorted {
		sortColumns(r.keys, r.recs, 0)
		r.sorted = true
	}
}

// sortColumns sorts keys ascending, in place, moving recs[i] with
// keys[i], given that the keys agree on their bytes before d: an MSD
// radix sort (American flag sort), one counting pass and one 256-way
// in-place partition per key byte, recursing into each bucket on the
// next byte, and insertion sort once a bucket is small. A byte every key
// shares costs the counting pass alone.
func sortColumns(keys []addr.Addr, recs []slabRec, d int) {
	for ; len(keys) > 32 && d < len(addr.Addr{}); d++ {
		var count [256]int
		for i := range keys {
			count[keys[i][d]]++
		}
		if count[keys[0][d]] == len(keys) {
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
				i := next[v]
				w := keys[i][d]
				if int(w) == v {
					next[v]++
					continue
				}
				j := next[w]
				keys[i], keys[j] = keys[j], keys[i]
				recs[i], recs[j] = recs[j], recs[i]
				next[w]++
			}
		}
		lo := 0
		for _, hi := range end {
			if hi-lo > 1 {
				sortColumns(keys[lo:hi], recs[lo:hi], d+1)
			}
			lo = hi
		}
		return
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j].Less(keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
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
// encodings are byte-identical — regardless of insertion order, merge
// schedule or storage layout (the encoding predates the flat-slab
// engine and is pinned by a golden-checksum test). This is the ground
// truth the ingest equivalence tests assert on. Both halves are read
// from one sorted copy of the records, the IID half through the
// IIDTable folded from it.
func (c *Collector) WriteCanonical(w io.Writer) (err error) {
	r := c.CopyRecords()
	buf := make([]byte, 0, canonFlush+1024)
	buf = binary.BigEndian.AppendUint64(buf, r.total)

	buf = binary.BigEndian.AppendUint64(buf, uint64(r.NumAddrs()))
	for a, rec := range r.CanonicalOrder() {
		buf = append(buf, a[:]...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(rec.First))
		buf = binary.BigEndian.AppendUint64(buf, uint64(rec.Last))
		buf = binary.BigEndian.AppendUint64(buf, uint64(rec.Count))
		buf = binary.BigEndian.AppendUint64(buf, uint64(rec.Servers))
		if buf, err = spill(buf, w); err != nil {
			return err
		}
	}

	if buf, err = r.IIDTable().appendCanonicalIIDs(buf, w); err != nil {
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
