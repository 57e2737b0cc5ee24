// Package collector implements the passive observation store: the paper's
// measurement core. Every NTP query's source address is recorded with
// first/last sighting times, a sighting count and the set of vantage
// servers that saw it; EUI-64 IIDs additionally carry their per-/64
// sighting spans, which power the tracking analyses of §5.
//
// A Collector is the corpus as it is written: its address records and
// nothing derived from them. Records live inline — key and value
// together — in growable chunked slabs, indexed by an open-addressing
// table that keeps a uint32 slab offset and a one-byte hash tag per
// slot: a probe walks the tags and reads the slab only where one
// matches, and the hot path performs no per-record heap allocation.
//
// Everything per IID is a fold of the address records, built when a
// reader asks for it: Collector.IIDTable runs one pass over the slab
// into an IIDTable. Two observations about the corpus shape keep that
// table small:
//
//   - Nearly every IID appears under exactly one address (random IIDs
//     collide across /64s only by chance), and such an IID's aggregate
//     — first/last/count — is definitionally identical to its address's
//     record. Singleton IIDs therefore cost one 5-byte table slot
//     pointing at the address entry; a real IID record is materialized
//     ("promoted") only when a second address shares the IID or the IID
//     is EUI-64 and needs /64 tracking.
//
//   - Per-/64 spans for the EUI-64 subset (3% of the paper's corpus)
//     live in a shared span slab chained by index: a few machine words
//     per /64 instead of a nested map header plus pointers.
//
// No slab entry contains a pointer, which keeps the garbage collector
// out of the picture entirely — the property that lets a single machine
// hold hundreds of millions of records without GC pressure becoming the
// throughput ceiling. A collector has one writer at a time — the ingest
// worker holding the Store's write lock, a replay — and readers that do
// not run concurrently with it (Store is that boundary for live ingest).
package collector

import (
	"math"
	"time"
	"unsafe"

	"hitlist6/internal/addr"
)

// MaxServers is the number of distinct vantage-server bits an AddrRecord
// can hold: Servers is a uint32 bitmask, so indices 0..MaxServers-1 each
// get their own bit. The paper's deployment ran 27 servers; deployments
// beyond MaxServers saturate onto the top bit (see ServerBit) rather than
// silently shifting out of range.
const MaxServers = 32

// ServerBit maps a vantage-server index to its Servers-mask bit.
// Indices >= MaxServers saturate to the top bit (MaxServers-1); negative
// indices mean "no vantage attribution" and return 0.
func ServerBit(server int) uint32 {
	if server < 0 {
		return 0
	}
	if server >= MaxServers {
		server = MaxServers - 1
	}
	return 1 << uint(server)
}

// InTimeDomain reports whether ts lies in the time domain: every time a
// corpus holds is a Unix second in [0, 2^32-1], 1970-01-01 to 2106-02-07
// 06:28:15 UTC, so the slabs keep it in a uint32. Each edge that admits
// a time — the event-line parser, ObserveUnix, a checkpoint restore —
// rejects one outside the domain instead of wrapping it.
func InTimeDomain(ts int64) bool { return ts >= 0 && ts <= math.MaxUint32 }

// AddrRecord summarizes all sightings of one source address. It is a
// plain value: the collector stores records inline (as a slabRec) and
// hands out copies, so holding one never pins collector internals.
type AddrRecord struct {
	// First and Last are Unix seconds of the first and last sighting.
	First, Last int64
	// Count is the number of sightings.
	Count uint32
	// Servers is a bitmask of vantage servers (bit i = server i); the
	// paper ran 27 servers, so a uint32 suffices.
	Servers uint32
}

// Lifetime returns the observed address lifetime (paper Fig 2a): the span
// between first and last sighting. Addresses seen once have lifetime 0.
func (r AddrRecord) Lifetime() time.Duration {
	return time.Duration(r.Last-r.First) * time.Second
}

// Span is a first/last sighting window.
type Span struct {
	First, Last int64
}

// slabRec is an AddrRecord as the slabs hold it: the times narrowed to
// uint32 seconds, which the time domain makes lossless. 16 bytes where
// an AddrRecord takes 24.
type slabRec struct {
	first, last    uint32
	count, servers uint32
}

// record widens r to the public AddrRecord.
func (r *slabRec) record() AddrRecord {
	return AddrRecord{First: int64(r.first), Last: int64(r.last), Count: r.count, Servers: r.servers}
}

// narrow is record's inverse for a record whose times are in the time
// domain; the caller checks that.
func narrow(r AddrRecord) slabRec {
	return slabRec{first: uint32(r.First), last: uint32(r.Last), count: r.Count, servers: r.Servers}
}

// ---- chunked record slabs ----

// Slab geometry: the first chunk grows by appending (so small collectors
// — day slices, tests — stay small), and once it reaches
// chunkSize further chunks are allocated at full capacity and never
// moved. Growth therefore copies at most chunkSize records ever, and
// cumulative allocation stays within a small constant of the final
// footprint — unlike append-doubling, whose churn rivals the corpus
// itself at hundreds of millions of records.
const (
	chunkBits = 15
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// slab is a growable array of inline records addressed by uint32 index.
type slab[T any] struct {
	head   []T   // first chunk; grows by append up to chunkSize
	chunks [][]T // subsequent chunks, each allocated at chunkSize cap
	n      uint32
}

// alloc appends a zero record and returns its index.
func (s *slab[T]) alloc() uint32 {
	var zero T
	i := s.n
	if i < chunkSize {
		s.head = append(s.head, zero)
	} else {
		ci := int((i - chunkSize) >> chunkBits)
		if ci == len(s.chunks) {
			s.chunks = append(s.chunks, make([]T, 0, chunkSize))
		}
		s.chunks[ci] = append(s.chunks[ci], zero)
	}
	s.n++
	return i
}

// at returns the record at index i. The pointer stays valid until the
// slab's owning chunk grows — only the first chunk ever moves, so
// holding a pointer across alloc calls on another slab is safe.
func (s *slab[T]) at(i uint32) *T {
	if i < chunkSize {
		return &s.head[i]
	}
	j := i - chunkSize
	return &s.chunks[j>>chunkBits][j&chunkMask]
}

// bytes returns the slab's resident size.
func (s *slab[T]) bytes() uint64 {
	var zero T
	size := uint64(unsafe.Sizeof(zero))
	n := uint64(cap(s.head))
	for _, c := range s.chunks {
		n += uint64(cap(c))
	}
	return n * size
}

// ---- open-addressing index tables ----

// tableInit is the initial slot count of an index table (power of two).
const tableInit = 16

// growTable reports whether an index with used entries out of len slots
// needs to grow before the next insert (load factor 3/4). The math is
// 64-bit so tables past 2^32 slots keep comparing correctly.
func growTable(used uint64, slots int) bool {
	return slots == 0 || used >= uint64(slots)-uint64(slots)/4
}

// hashTag is the byte an index table keeps per slot beside the slab
// reference: 0 marks an empty slot, any other value is 0x80 | bits 32..38
// of the key's hash — bits the home slot (the low bits, on tables under
// 2^32 slots) does not spend, so keys sharing a home slot still differ
// in the tag 127 times in 128.
func hashTag(h uint64) uint8 { return 0x80 | uint8(h>>32) }

// freeSlot returns the first empty slot on h's probe path: where a key
// known to be absent goes.
func freeSlot(tags []uint8, h uint64) uint32 {
	mask := uint64(len(tags) - 1)
	pos := h & mask
	for tags[pos] != 0 {
		pos = (pos + 1) & mask
	}
	return uint32(pos)
}

// mix64 is the SplitMix64 finalizer: the hash behind the IID table and
// IIDSet (addresses use addr.Hash64, which mixes both halves).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// addrEntry is one inline (address, record) pair in the address slab:
// 32 bytes.
//
//lint:slab
type addrEntry struct {
	key addr.Addr
	rec slabRec
}

// spanNone marks an IID record without /64 tracking (non-EUI-64 IIDs).
// Tracked records always chain at least one span node, so the sentinel
// doubles as the "tracked?" flag.
const spanNone = ^uint32(0)

// iidEntry is one inline promoted IID record, 32 bytes. first/last/count
// summarize all sightings, the times in uint32 seconds as in slabRec;
// spans heads the IID's chain in the shared span slab (spanNone when the
// IID is not EUI-64); p64n counts distinct /64s so prefix-spread queries
// are O(1).
//
//lint:slab
type iidEntry struct {
	key         addr.IID
	first, last uint32
	count       uint32
	spans       uint32
	p64n        uint32
}

// spanNode is one /64 sighting window in the shared span slab, 24
// bytes. next chains the nodes of one IID by slab index, terminated by
// spanNone.
//
//lint:slab
type spanNode struct {
	p64         addr.Prefix64
	first, last uint32
	next        uint32
}

// promotedTag marks an IID reference as an index into the promoted IID
// slab; without it the reference indexes the address slab (a singleton
// IID whose record is its address's record).
const promotedTag = uint32(1) << 31

// u64set is an open-addressing set of uint64 keys. Zero keys are
// tracked out of band so 0 can mark empty slots.
type u64set struct {
	slots   []uint64
	used    int
	hasZero bool
}

// insert adds v.
func (s *u64set) insert(v uint64) {
	if v == 0 {
		s.hasZero = true
		return
	}
	if growTable(uint64(s.used), len(s.slots)) {
		s.resize(max(tableInit, 2*len(s.slots)))
	}
	mask := uint64(len(s.slots) - 1)
	pos := mix64(v) & mask
	for {
		switch s.slots[pos] {
		case 0:
			s.slots[pos] = v
			s.used++
			return
		case v:
			return
		}
		pos = (pos + 1) & mask
	}
}

// reserve sizes the table so n more inserts cause no resize.
func (s *u64set) reserve(n int) {
	if next := tableSizeFor(uint64(s.used + n)); next > len(s.slots) {
		s.resize(next)
	}
}

// resize rebuilds the table at the given power-of-two slot count.
func (s *u64set) resize(next int) {
	old := s.slots
	s.slots = make([]uint64, next)
	mask := uint64(next - 1)
	for _, v := range old {
		if v == 0 {
			continue
		}
		pos := mix64(v) & mask
		for s.slots[pos] != 0 {
			pos = (pos + 1) & mask
		}
		s.slots[pos] = v
	}
}

func (s *u64set) len() int {
	if s.hasZero {
		return s.used + 1
	}
	return s.used
}

// IIDSet is the exact set of IIDs under a range of a collector's address
// slab: what a reader that needs only the distinct-IID count keeps,
// instead of an IIDTable, when it folds a growing slab a range at a
// time. The zero value is empty.
type IIDSet struct{ s u64set }

// AddRange adds the IIDs of c's address records at slab positions
// [lo, hi), clamped to the slab as AddrsRange clamps. Each record adds
// at most one IID, so the set is sized for them once, before the first
// insert.
func (s *IIDSet) AddRange(c *Collector, lo, hi int) {
	lo, hi = max(lo, 0), min(hi, c.NumAddrs())
	if lo >= hi {
		return
	}
	s.s.reserve(hi - lo)
	c.AddrsRange(lo, hi, func(a addr.Addr, _ AddrRecord) bool {
		s.s.insert(uint64(a.IID()))
		return true
	})
}

// Len returns the number of distinct IIDs added.
func (s *IIDSet) Len() int { return s.s.len() }

// addrTable is the (address, record) slab and the open-addressing index
// over it: a Collector's records, and a Restore's while a chain is read.
type addrTable struct {
	addrRecs slab[addrEntry]
	// addrTag and addrIdx are the index, slot for slot: the hashTag of
	// the slot's address (0 = empty) and the slab index of its record.
	addrTag []uint8
	addrIdx []uint32
}

// findAddr returns the slab index of a's record, or with ok == false the
// empty table slot where it belongs; h is a.Hash64().
func (t *addrTable) findAddr(a addr.Addr, h uint64) (idx uint32, slot uint32, ok bool) {
	if len(t.addrTag) == 0 {
		return 0, 0, false
	}
	mask := uint64(len(t.addrTag) - 1)
	tag := hashTag(h)
	for pos := h & mask; ; pos = (pos + 1) & mask {
		switch t.addrTag[pos] {
		case 0:
			return 0, uint32(pos), false
		case tag:
			if i := t.addrIdx[pos]; t.addrRecs.at(i).key == a {
				return i, uint32(pos), true
			}
		}
	}
}

// insertAddr allocates the record of a, whose hash is h, in the empty
// slot findAddr reported.
func (t *addrTable) insertAddr(a addr.Addr, h uint64, slot uint32) (uint32, *addrEntry) {
	if growTable(uint64(t.addrRecs.n), len(t.addrTag)) {
		t.resizeAddrIdx(max(tableInit, 2*len(t.addrTag)))
		slot = freeSlot(t.addrTag, h)
	}
	i := t.addrRecs.alloc()
	t.addrTag[slot], t.addrIdx[slot] = hashTag(h), i
	e := t.addrRecs.at(i)
	e.key = a
	return i, e
}

// resizeAddrIdx rebuilds the address table at the given power-of-two
// slot count, rehashing the keys in slab order: one sequential pass over
// the slab instead of a random read per occupied slot.
func (t *addrTable) resizeAddrIdx(slots int) {
	t.addrTag = make([]uint8, slots)
	t.addrIdx = make([]uint32, slots)
	for i := uint32(0); i < t.addrRecs.n; i++ {
		h := t.addrRecs.at(i).key.Hash64()
		pos := freeSlot(t.addrTag, h)
		t.addrTag[pos], t.addrIdx[pos] = hashTag(h), i
	}
}

// foldAddr folds in — Count sightings of a over [First, Last] from
// Servers — into a's record, creating it when a is new (fresh). The
// write core takes a and in by pointer: it is three calls deep, and a
// merge reads both straight out of the donor's slab.
func (t *addrTable) foldAddr(a *addr.Addr, in *slabRec) (ai uint32, fresh bool) {
	h := a.Hash64()
	ai, slot, ok := t.findAddr(*a, h)
	if !ok {
		ai, e := t.insertAddr(*a, h, slot)
		e.rec = *in
		return ai, true
	}
	r := &t.addrRecs.at(ai).rec
	r.first = min(r.first, in.first)
	r.last = max(r.last, in.last)
	r.count += in.count
	r.servers |= in.servers
	return ai, false
}

// Collector accumulates observations. Not safe for concurrent writes,
// and reads must not run concurrently with writes (see Store for the
// concurrency boundary). Slab indices are uint32s whose top bit an
// IIDTable reference reserves: one collector holds at most ~2.1 billion
// unique addresses — beyond that, partition the corpus.
type Collector struct {
	addrTable
	total uint64
	// ckpt is the delta-checkpoint watermark (see dirty.go): which prefix
	// of the address slab the last checkpoint covered and which blocks of
	// it have been mutated in place since.
	ckpt ckptState
}

// New returns an empty collector. All storage grows on demand, so idle
// collectors (an empty store, day slices) cost almost nothing.
func New() *Collector {
	return &Collector{}
}

// IIDTable is the IID half of a corpus, folded from its address records:
// the IID index, promoted records and /64 span chains. It is built whole
// by Collector.IIDTable and never written after, and it reads singleton
// IIDs' aggregates straight from the collector's address slab, so it is
// valid only until the next write to that collector.
type IIDTable struct {
	c       *Collector
	iidRecs slab[iidEntry]
	// iidTag and iidIdx are the IID index, slot for slot: the hashTag of
	// the slot's IID (0 = empty), and ref+1 where ref is a promoted-slab
	// index (with promotedTag) or the address-slab index of a singleton
	// IID's only address (0 = empty, so readers may skip the tags).
	iidTag  []uint8
	iidIdx  []uint32
	iidUsed uint32 // occupied slots = unique IIDs
	spans   slab[spanNode]
}

// IIDTable folds c's address records, in slab order, into its IID
// table. The index is sized once for one IID per address — the most
// there can be — so it never grows.
func (c *Collector) IIDTable() *IIDTable {
	slots := tableSizeFor(uint64(c.addrRecs.n))
	t := &IIDTable{c: c, iidTag: make([]uint8, slots), iidIdx: make([]uint32, slots)}
	for i := uint32(0); i < c.addrRecs.n; i++ {
		e := c.addrRecs.at(i)
		t.derive(&e.key, i, &e.rec)
	}
	return t
}

// Collector returns the corpus t was folded from.
func (t *IIDTable) Collector() *Collector { return t.c }

// iidKeyOf resolves the IID a table reference stands for.
func (t *IIDTable) iidKeyOf(ref uint32) addr.IID {
	if ref&promotedTag != 0 {
		return t.iidRecs.at(ref &^ promotedTag).key
	}
	return t.c.addrRecs.at(ref).key.IID()
}

// findIID returns iid's table reference, or with ok == false the empty
// slot where it belongs; h is mix64(iid).
func (t *IIDTable) findIID(iid addr.IID, h uint64) (ref uint32, slot uint32, ok bool) {
	mask := uint64(len(t.iidTag) - 1)
	tag := hashTag(h)
	for pos := h & mask; ; pos = (pos + 1) & mask {
		switch t.iidTag[pos] {
		case 0:
			return 0, uint32(pos), false
		case tag:
			if ref := t.iidIdx[pos] - 1; t.iidKeyOf(ref) == iid {
				return ref, uint32(pos), true
			}
		}
	}
}

// setIIDSlot stores a new IID reference in the empty slot findIID
// reported for the IID hashing to h.
func (t *IIDTable) setIIDSlot(slot uint32, ref uint32, h uint64) {
	t.iidTag[slot], t.iidIdx[slot] = hashTag(h), ref+1
	t.iidUsed++
}

// allocPromoted materializes a promoted IID record seeded with the given
// aggregate and returns its slab index and entry. The caller wires the
// table slot: setIIDSlot for a new IID, or an in-place overwrite when
// promoting an existing singleton.
func (t *IIDTable) allocPromoted(iid addr.IID, first, last, count uint32) (uint32, *iidEntry) {
	ri := t.iidRecs.alloc()
	e := t.iidRecs.at(ri)
	e.key = iid
	e.first, e.last, e.count = first, last, count
	e.spans = spanNone
	return ri, e
}

// Observe records one sighting of a at time t from the given vantage
// server index (0-based; indexes >= MaxServers saturate onto the top bit).
//
//lint:api the time.Time form the tests of every corpus reader write sightings with
func (c *Collector) Observe(a addr.Addr, t time.Time, server int) {
	c.ObserveUnix(a, t.Unix(), server)
}

// ObserveUnix is Observe with a pre-converted Unix-seconds timestamp: the
// form the ingest pipeline's Event carries, avoiding a time.Time round
// trip per sighting on the hot path. A sighting outside the time domain
// (see InTimeDomain) is dropped, neither folded nor counted: the
// parsers in front of the pipeline have rejected it already.
func (c *Collector) ObserveUnix(a addr.Addr, ts int64, server int) {
	if !InTimeDomain(ts) {
		return
	}
	c.total++
	c.observe(&a, &slabRec{first: uint32(ts), last: uint32(ts), count: 1, servers: ServerBit(server)})
}

// observe is the one write core: fold in.Count sightings of a over
// [in.First, in.Last] from in.Servers. A single sighting is the case
// Count == 1, First == Last; Merge feeds it a donor's whole record.
// Sightings commute, so the result depends only on what was folded,
// never on the batching.
func (c *Collector) observe(a *addr.Addr, in *slabRec) {
	if ai, fresh := c.foldAddr(a, in); !fresh {
		c.markAddrDirty(ai)
	}
}

// derive folds in, the whole record of address a at slab index ai, into
// the table: IID index, promoted records and span chains. Each address
// is derived once, so a singleton reference found here is always
// another address's.
func (t *IIDTable) derive(a *addr.Addr, ai uint32, in *slabRec) {
	iid := a.IID()
	h := mix64(uint64(iid))
	ref, slot, found := t.findIID(iid, h)
	if !found {
		if iid.IsEUI64() {
			ri, e := t.allocPromoted(iid, in.first, in.last, in.count)
			t.addSpan(e, a.P64(), in)
			t.setIIDSlot(slot, ri|promotedTag, h)
			return
		}
		// Singleton IID: its record is the address record; one table
		// slot is the whole cost.
		t.setIIDSlot(slot, ai, h)
		return
	}
	if ref&promotedTag != 0 {
		r := t.iidRecs.at(ref &^ promotedTag)
		r.first = min(r.first, in.first)
		r.last = max(r.last, in.last)
		r.count += in.count
		if r.spans != spanNone {
			t.addSpan(r, a.P64(), in)
		}
		return
	}
	// A second address sharing a singleton's IID (a random-IID collision
	// across /64s) promotes it; EUI-64 IIDs are promoted at first sight,
	// so no span handling is needed.
	base := &t.c.addrRecs.at(ref).rec
	ri, _ := t.allocPromoted(iid, min(base.first, in.first), max(base.last, in.last), base.count+in.count)
	t.iidIdx[slot] = (ri | promotedTag) + 1 // same IID: the tag stands
}

// addSpan prepends the window of in, the record of r's address under
// p, to r's span chain. Two addresses sharing an IID differ in their
// /64, and each address is derived once, so p is never on the chain
// yet. r points into the IID slab; appending to the span slab never
// moves it.
func (t *IIDTable) addSpan(r *iidEntry, p addr.Prefix64, in *slabRec) {
	i := t.spans.alloc()
	n := t.spans.at(i)
	n.p64, n.first, n.last, n.next = p, in.first, in.last, r.spans
	r.spans = i
	r.p64n++
}

// NumAddrs returns the number of unique addresses observed.
func (c *Collector) NumAddrs() int { return int(c.addrRecs.n) }

// NumIIDs returns the number of unique IIDs observed.
func (t *IIDTable) NumIIDs() int { return int(t.iidUsed) }

// TotalObservations returns the raw sighting count.
func (c *Collector) TotalObservations() uint64 { return c.total }

// Get returns a copy of the record for an address; ok is false when the
// address was never observed.
func (c *Collector) Get(a addr.Addr) (AddrRecord, bool) {
	i, _, ok := c.findAddr(a, a.Hash64())
	if !ok {
		return AddrRecord{}, false
	}
	return c.addrRecs.at(i).rec.record(), true
}

// IIDView is a read handle onto one IID's record (inline promoted record
// or singleton address record) and span chain. It is a two-word value —
// copying it is free — but it borrows its table's slabs and the
// collector's: a view is valid as long as its IIDTable is.
type IIDView struct {
	t   *IIDTable
	ref uint32
}

// promoted returns the promoted record, or nil for singleton IIDs.
func (v IIDView) promoted() *iidEntry {
	if v.ref&promotedTag == 0 {
		return nil
	}
	return v.t.iidRecs.at(v.ref &^ promotedTag)
}

// summary returns the IID's (first, last, count) aggregate.
func (v IIDView) summary() (int64, int64, uint32) {
	if r := v.promoted(); r != nil {
		return int64(r.first), int64(r.last), r.count
	}
	rec := &v.t.c.addrRecs.at(v.ref).rec
	return int64(rec.first), int64(rec.last), rec.count
}

// First returns the Unix second of the IID's first sighting.
func (v IIDView) First() int64 { f, _, _ := v.summary(); return f }

// Last returns the Unix second of the IID's last sighting.
func (v IIDView) Last() int64 { _, l, _ := v.summary(); return l }

// Count returns the IID's total sighting count.
func (v IIDView) Count() uint32 { _, _, n := v.summary(); return n }

// Lifetime returns the IID's observed lifetime (paper Fig 2b, 6a).
func (v IIDView) Lifetime() time.Duration {
	f, l, _ := v.summary()
	return time.Duration(l-f) * time.Second
}

// NumP64s returns the number of distinct /64s the IID appeared in
// (0 for untracked IIDs). O(1): the count is kept as the table is built.
func (v IIDView) NumP64s() int {
	if r := v.promoted(); r != nil {
		return int(r.p64n)
	}
	return 0
}

// P64s iterates the IID's per-/64 sighting spans in unspecified order;
// the callback returning false stops early.
func (v IIDView) P64s(fn func(p addr.Prefix64, sp Span) bool) {
	r := v.promoted()
	if r == nil {
		return
	}
	for i := r.spans; i != spanNone; {
		n := v.t.spans.at(i)
		if !fn(n.p64, Span{First: int64(n.first), Last: int64(n.last)}) {
			return
		}
		i = n.next
	}
}

// Addrs iterates every (address, record) pair in slab (insertion) order;
// the callback returning false stops early. Records are handed out by
// value. The order is not part of the contract — use AddrsCanonical for
// determinism across differently built corpora.
func (c *Collector) Addrs(fn func(a addr.Addr, r AddrRecord) bool) {
	for i := uint32(0); i < c.addrRecs.n; i++ {
		e := c.addrRecs.at(i)
		if !fn(e.key, e.rec.record()) {
			return
		}
	}
}

// AddrsCanonical iterates every (address, record) pair in canonical
// order (ascending by address value) — the order WriteCanonical encodes,
// so consumers that need run-to-run determinism share one definition of
// "sorted corpus".
func (c *Collector) AddrsCanonical(fn func(a addr.Addr, r AddrRecord) bool) {
	c.CanonicalOrder()(fn)
}

// AddressList materializes all observed addresses; prefer Addrs for large
// corpora.
func (c *Collector) AddressList() []addr.Addr {
	out := make([]addr.Addr, 0, c.addrRecs.n)
	for i := uint32(0); i < c.addrRecs.n; i++ {
		out = append(out, c.addrRecs.at(i).key)
	}
	return out
}

// Merge folds another collector's observations into c, as if every
// sighting had been recorded here: first/last spans widen, counts add,
// server masks union. The copy is deep — c never aliases o's slabs, so
// o may keep being written afterwards. Absorb runs it when both sides
// hold records, the case the benchmark's merge layer (bench/layers)
// times through Store.ApplyShard; ingest itself writes each sighting
// into the Store once and merges nothing.
//
// The walk is in o's slab (insertion) order, which is uncorrelated with
// hash order: walking an index in slot order instead would insert into
// c in ascending home-slot order and, near c's load threshold, weld its
// probe runs into one (TestMergeSlotOrderPathology).
func (c *Collector) Merge(o *Collector) {
	for i := uint32(0); i < o.addrRecs.n; i++ {
		e := o.addrRecs.at(i)
		c.observe(&e.key, &e.rec)
	}
	c.total += o.total
}

// Absorb folds another collector's observations into c like Merge, but
// takes ownership of o — the donor must not be used afterwards. Three
// cases:
//
//   - An empty donor contributes only its observation total.
//   - Into an empty c, the donor's slab and index move over wholesale:
//     O(1), no record is touched. Restore-on-start (ingest.Config.Seed)
//     ends here.
//   - Otherwise Merge runs record by record.
//
// The result is observation-identical to Merge in every case (pinned by
// the absorb-vs-merge equivalence tests).
func (c *Collector) Absorb(o *Collector) {
	if o == nil {
		return
	}
	switch {
	case o.addrRecs.n == 0:
		c.total += o.total
	case c.addrRecs.n == 0:
		// c keeps its own checkpoint lineage, not the donor's: c was
		// empty, so its watermarks are zero and every adopted record
		// counts as new against them.
		o.total += c.total
		o.ckpt = c.ckpt
		*c = *o
	default:
		c.Merge(o)
	}
	*o = Collector{}
}

// MemoryFootprint returns the corpus's resident bytes: the record slab,
// the index table with its tags and the two dirty-block sets. Unlike a
// map-based store the engine owns every allocation, so the figure is
// exact (modulo slice headers) — it is what daemons export as
// corpus_bytes telemetry.
func (c *Collector) MemoryFootprint() uint64 {
	return c.addrRecs.bytes() + uint64(len(c.addrIdx))*4 + uint64(len(c.addrTag)) +
		c.ckpt.dirty.bytes() + c.ckpt.lastDirty.bytes()
}
