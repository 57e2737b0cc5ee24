// Package collector implements the passive observation store: the paper's
// measurement core. Every NTP query's source address is recorded with
// first/last sighting times, a sighting count and the set of vantage
// servers that saw it; EUI-64 IIDs additionally carry their per-/64
// sighting spans, which power the tracking analyses of §5.
//
// The store is deliberately compact: a bespoke storage engine rather
// than maps of pointers. Records live inline — key and value together —
// in growable chunked slabs, indexed by open-addressing tables that keep
// a uint32 slab offset and a one-byte hash tag per slot: a probe walks
// the tags and reads the slab only where one matches, and the hot path
// performs no per-record heap allocation.
// Two observations about the corpus shape pay for most of the bytes:
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
// throughput ceiling. The collector is written by a single goroutine
// (the query replay) and read by many.
package collector

import (
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

// AddrRecord summarizes all sightings of one source address. It is a
// plain value: the collector stores records inline and hands out copies,
// so holding one never pins collector internals.
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

// ---- chunked record slabs ----

// Slab geometry: the first chunk grows by appending (so small collectors
// — shard buffers, day slices, tests — stay small), and once it reaches
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
// of the key's hash — bits that neither the home slot (the low bits, on
// tables under 2^32 slots) nor ingest's shard choice (the high bits)
// spends, so keys sharing a home slot and a shard still differ in the
// tag 127 times in 128.
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
// prefix sets (addresses use addr.Hash64, which mixes both halves).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// addrEntry is one inline (address, record) pair in the address slab.
//
//lint:slab
type addrEntry struct {
	key addr.Addr
	rec AddrRecord
}

// spanNone marks an IID record without /64 tracking (non-EUI-64 IIDs).
// Tracked records always chain at least one span node, so the sentinel
// doubles as the "tracked?" flag.
const spanNone = ^uint32(0)

// iidEntry is one inline promoted IID record. first/last/count summarize
// all sightings; spans heads the IID's chain in the shared span slab
// (spanNone when the IID is not EUI-64); p64n counts distinct /64s so
// prefix-spread queries are O(1).
//
//lint:slab
type iidEntry struct {
	key         addr.IID
	first, last int64
	count       uint32
	spans       uint32
	p64n        uint32
}

// spanNode is one /64 sighting window in the shared span slab. next
// chains the nodes of one IID by slab index, terminated by spanNone.
//
//lint:slab
type spanNode struct {
	p64         addr.Prefix64
	first, last int64
	next        uint32
}

// promotedTag marks an IID reference as an index into the promoted IID
// slab; without it the reference indexes the address slab (a singleton
// IID whose record is its address's record).
const promotedTag = uint32(1) << 31

// u64set is an open-addressing set of uint64 keys (the distinct-/48 and
// /64 prefix sets). Zero keys are tracked out of band so 0 can mark
// empty slots.
type u64set struct {
	slots   []uint64
	used    int
	hasZero bool
}

// insert adds v, reporting whether it was new.
func (s *u64set) insert(v uint64) bool {
	if v == 0 {
		if s.hasZero {
			return false
		}
		s.hasZero = true
		return true
	}
	if growTable(uint64(s.used), len(s.slots)) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	pos := mix64(v) & mask
	for {
		switch s.slots[pos] {
		case 0:
			s.slots[pos] = v
			s.used++
			return true
		case v:
			return false
		}
		pos = (pos + 1) & mask
	}
}

func (s *u64set) grow() {
	next := tableInit
	if len(s.slots) > 0 {
		next = len(s.slots) * 2
	}
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

// contains reports membership without inserting.
func (s *u64set) contains(v uint64) bool {
	if v == 0 {
		return s.hasZero
	}
	if len(s.slots) == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	pos := mix64(v) & mask
	for {
		switch s.slots[pos] {
		case 0:
			return false
		case v:
			return true
		}
		pos = (pos + 1) & mask
	}
}

// each visits every element (unspecified order).
func (s *u64set) each(fn func(v uint64)) {
	if s.hasZero {
		fn(0)
	}
	for _, v := range s.slots {
		if v != 0 {
			fn(v)
		}
	}
}

func (s *u64set) len() int {
	if s.hasZero {
		return s.used + 1
	}
	return s.used
}

func (s *u64set) bytes() uint64 { return uint64(len(s.slots)) * 8 }

// addrTable is the address half of the engine: the (address, record)
// slab and the open-addressing index over it. A Collector embeds one and
// derives everything else it holds — IID index, promoted records, span
// chains, prefix sets — from the records that land here; a Buffer is one
// with nothing derived.
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
func (t *addrTable) foldAddr(a *addr.Addr, in *AddrRecord) (ai uint32, fresh bool) {
	h := a.Hash64()
	ai, slot, ok := t.findAddr(*a, h)
	if !ok {
		ai, e := t.insertAddr(*a, h, slot)
		e.rec = *in
		return ai, true
	}
	r := &t.addrRecs.at(ai).rec
	if in.First < r.First {
		r.First = in.First
	}
	if in.Last > r.Last {
		r.Last = in.Last
	}
	r.Count += in.Count
	r.Servers |= in.Servers
	return ai, false
}

// Buffer is a write-only batch of address records: what an ingest shard
// fills between two snapshots. It keeps no IID index, promoted records,
// span chains or prefix sets — every one of those is a fold of address
// records, and Collector.AbsorbBuffer runs that fold once, where the
// corpus lives. The zero value is an empty buffer.
type Buffer struct {
	addrTable
	total uint64
}

// ObserveUnix records one sighting, as Collector.ObserveUnix does.
func (b *Buffer) ObserveUnix(a addr.Addr, ts int64, server int) {
	b.total++
	b.foldAddr(&a, &AddrRecord{First: ts, Last: ts, Count: 1, Servers: ServerBit(server)})
}

// Collector accumulates observations. Not safe for concurrent writes,
// and reads must not run concurrently with writes (see Store for the
// concurrency boundary). Slab indices are tagged uint32s: one collector
// holds at most ~2.1 billion unique addresses/IIDs — beyond that, shard.
type Collector struct {
	addrTable
	iidRecs slab[iidEntry]
	// iidTag and iidIdx are the IID index, slot for slot: the hashTag of
	// the slot's IID (0 = empty), and ref+1 where ref is a promoted-slab
	// index (with promotedTag) or the address-slab index of a singleton
	// IID's only address (0 = empty, so readers may skip the tags).
	iidTag  []uint8
	iidIdx  []uint32
	iidUsed uint32 // occupied slots = unique IIDs
	spans   slab[spanNode]
	// p48s/p64s are the distinct-prefix sets behind Unique48s/Unique64s,
	// extended whenever an address is new to the table.
	p48s  u64set
	p64s  u64set
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

// iidKeyOf resolves the IID a table reference stands for.
func (c *Collector) iidKeyOf(ref uint32) addr.IID {
	if ref&promotedTag != 0 {
		return c.iidRecs.at(ref &^ promotedTag).key
	}
	return c.addrRecs.at(ref).key.IID()
}

// growIIDIdx rebuilds the IID index table at double capacity.
func (c *Collector) growIIDIdx() {
	next := tableInit
	if len(c.iidIdx) > 0 {
		next = len(c.iidIdx) * 2
	}
	c.resizeIIDIdx(next)
}

// findIID returns iid's table reference, or with ok == false the empty
// slot where it belongs; h is mix64(iid).
func (c *Collector) findIID(iid addr.IID, h uint64) (ref uint32, slot uint32, ok bool) {
	if len(c.iidTag) == 0 {
		return 0, 0, false
	}
	mask := uint64(len(c.iidTag) - 1)
	tag := hashTag(h)
	for pos := h & mask; ; pos = (pos + 1) & mask {
		switch c.iidTag[pos] {
		case 0:
			return 0, uint32(pos), false
		case tag:
			if ref := c.iidIdx[pos] - 1; c.iidKeyOf(ref) == iid {
				return ref, uint32(pos), true
			}
		}
	}
}

// setIIDSlot stores a new IID reference in the empty slot findIID
// reported for the IID hashing to h, growing the table first when
// needed.
func (c *Collector) setIIDSlot(slot uint32, ref uint32, h uint64) {
	if growTable(uint64(c.iidUsed), len(c.iidTag)) {
		c.growIIDIdx()
		slot = freeSlot(c.iidTag, h)
	}
	c.iidTag[slot], c.iidIdx[slot] = hashTag(h), ref+1
	c.iidUsed++
}

// allocPromoted materializes a promoted IID record seeded with the given
// aggregate and returns its slab index and entry. The caller wires the
// table slot: setIIDSlot for a new IID, or an in-place overwrite when
// promoting an existing singleton (the IID count is unchanged there, so
// no growth check is needed).
func (c *Collector) allocPromoted(iid addr.IID, first, last int64, count uint32) (uint32, *iidEntry) {
	ri := c.iidRecs.alloc()
	e := c.iidRecs.at(ri)
	e.key = iid
	e.first, e.last, e.count = first, last, count
	e.spans = spanNone
	return ri, e
}

// Observe records one sighting of a at time t from the given vantage
// server index (0-based; indexes >= MaxServers saturate onto the top bit).
func (c *Collector) Observe(a addr.Addr, t time.Time, server int) {
	c.ObserveUnix(a, t.Unix(), server)
}

// ObserveUnix is Observe with a pre-converted Unix-seconds timestamp: the
// form the ingest pipeline's Event carries, avoiding a time.Time round
// trip per sighting on the hot path.
func (c *Collector) ObserveUnix(a addr.Addr, ts int64, server int) {
	c.total++
	c.observe(&a, &AddrRecord{First: ts, Last: ts, Count: 1, Servers: ServerBit(server)})
}

// observe is the one write core: fold in.Count sightings of a over
// [in.First, in.Last] from in.Servers. A single sighting is the case
// Count == 1, First == Last; Merge feeds it a donor's whole record.
// Sightings commute, so the result depends only on what was folded,
// never on the batching.
func (c *Collector) observe(a *addr.Addr, in *AddrRecord) {
	ai, fresh := c.foldAddr(a, in)
	if !fresh {
		c.markAddrDirty(ai)
	}
	c.derive(a, ai, in, fresh)
}

// derive folds in, already folded into the address record at slab index
// ai (fresh: that record was just created), into the state a collector
// keeps beyond the address table: prefix sets, IID index, promoted
// records and span chains.
func (c *Collector) derive(a *addr.Addr, ai uint32, in *AddrRecord, fresh bool) {
	if fresh {
		c.p48s.insert(uint64(a.P48()))
		c.p64s.insert(uint64(a.P64()))
	}
	iid := a.IID()
	h := mix64(uint64(iid))
	ref, slot, found := c.findIID(iid, h)
	if !found {
		if iid.IsEUI64() {
			ri, e := c.allocPromoted(iid, in.First, in.Last, in.Count)
			c.widenSpan(e, a.P64(), in.First, in.Last)
			c.setIIDSlot(slot, ri|promotedTag, h)
			return
		}
		// Singleton IID: its record is the address record; one table
		// slot is the whole cost.
		c.setIIDSlot(slot, ai, h)
		return
	}
	if ref&promotedTag != 0 {
		r := c.iidRecs.at(ref &^ promotedTag)
		if in.First < r.first {
			r.first = in.First
		}
		if in.Last > r.last {
			r.last = in.Last
		}
		r.count += in.Count
		if r.spans != spanNone {
			c.widenSpan(r, a.P64(), in.First, in.Last)
		}
		return
	}
	// Singleton reference. Same address: the address record update
	// already IS the IID update. A second address sharing the IID (a
	// random-IID collision across /64s) promotes the singleton; EUI-64
	// IIDs are promoted at first sight, so no span handling is needed,
	// and a is new here (an earlier sighting of it would have promoted),
	// so its record is in.
	if ref == ai {
		return
	}
	base := c.addrRecs.at(ref).rec
	first, last := base.First, base.Last
	if in.First < first {
		first = in.First
	}
	if in.Last > last {
		last = in.Last
	}
	ri, _ := c.allocPromoted(iid, first, last, base.Count+in.Count)
	c.iidIdx[slot] = (ri | promotedTag) + 1 // same IID: the tag stands
}

// widenSpan folds the window [first, last] into r's span for p, walking
// the IID's chain and prepending a fresh node when the /64 is new. A
// matched node moves to the chain head, so repeat sightings of an IID's
// current /64 — the overwhelmingly common case — stay O(1) even for
// identifiers spread across many /64s. r points into the IID slab;
// appending to the span slab never moves it.
func (c *Collector) widenSpan(r *iidEntry, p addr.Prefix64, first, last int64) {
	prev := spanNone
	for i := r.spans; i != spanNone; {
		n := c.spans.at(i)
		if n.p64 == p {
			if first < n.first {
				n.first = first
			}
			if last > n.last {
				n.last = last
			}
			if prev != spanNone {
				c.spans.at(prev).next = n.next
				n.next = r.spans
				r.spans = i
			}
			return
		}
		prev = i
		i = n.next
	}
	i := c.spans.alloc()
	n := c.spans.at(i)
	n.p64, n.first, n.last, n.next = p, first, last, r.spans
	r.spans = i
	r.p64n++
}

// NumAddrs returns the number of unique addresses observed.
func (c *Collector) NumAddrs() int { return int(c.addrRecs.n) }

// NumIIDs returns the number of unique IIDs observed.
func (c *Collector) NumIIDs() int { return int(c.iidUsed) }

// TotalObservations returns the raw sighting count.
func (c *Collector) TotalObservations() uint64 { return c.total }

// Get returns a copy of the record for an address; ok is false when the
// address was never observed.
func (c *Collector) Get(a addr.Addr) (AddrRecord, bool) {
	i, _, ok := c.findAddr(a, a.Hash64())
	if !ok {
		return AddrRecord{}, false
	}
	return c.addrRecs.at(i).rec, true
}

// IIDView is a read handle onto one IID's record (inline promoted record
// or singleton address record) and span chain. It is a two-word value —
// copying it is free — but it borrows the collector's slabs: a view is
// valid only until the next write to the collector, like a map iterator.
type IIDView struct {
	c   *Collector
	ref uint32
}

// promoted returns the promoted record, or nil for singleton IIDs.
func (v IIDView) promoted() *iidEntry {
	if v.ref&promotedTag == 0 {
		return nil
	}
	return v.c.iidRecs.at(v.ref &^ promotedTag)
}

// summary returns the IID's (first, last, count) aggregate.
func (v IIDView) summary() (int64, int64, uint32) {
	if r := v.promoted(); r != nil {
		return r.first, r.last, r.count
	}
	rec := &v.c.addrRecs.at(v.ref).rec
	return rec.First, rec.Last, rec.Count
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

// Tracked reports whether per-/64 spans are kept (EUI-64 IIDs only).
func (v IIDView) Tracked() bool {
	r := v.promoted()
	return r != nil && r.spans != spanNone
}

// NumP64s returns the number of distinct /64s the IID appeared in
// (0 for untracked IIDs). O(1): the count is maintained on write.
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
		n := v.c.spans.at(i)
		if !fn(n.p64, Span{First: n.first, Last: n.last}) {
			return
		}
		i = n.next
	}
}

// Span returns the sighting window of the IID inside one /64.
func (v IIDView) Span(p addr.Prefix64) (Span, bool) {
	r := v.promoted()
	if r == nil {
		return Span{}, false
	}
	for i := r.spans; i != spanNone; {
		n := v.c.spans.at(i)
		if n.p64 == p {
			return Span{First: n.first, Last: n.last}, true
		}
		i = n.next
	}
	return Span{}, false
}

// GetIID returns a view of the record for an IID; ok is false when the
// IID was never observed.
func (c *Collector) GetIID(iid addr.IID) (IIDView, bool) {
	ref, _, ok := c.findIID(iid, mix64(uint64(iid)))
	if !ok {
		return IIDView{}, false
	}
	return IIDView{c: c, ref: ref}, true
}

// Addrs iterates every (address, record) pair in slab (insertion) order;
// the callback returning false stops early. Records are handed out by
// value. The order is not part of the contract — use AddrsCanonical for
// determinism across differently built corpora.
func (c *Collector) Addrs(fn func(a addr.Addr, r AddrRecord) bool) {
	for i := uint32(0); i < c.addrRecs.n; i++ {
		e := c.addrRecs.at(i)
		if !fn(e.key, e.rec) {
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

// IIDs iterates every (IID, view) pair in unspecified order.
func (c *Collector) IIDs(fn func(iid addr.IID, r IIDView) bool) {
	for _, v := range c.iidIdx {
		if v == 0 {
			continue
		}
		ref := v - 1
		if !fn(c.iidKeyOf(ref), IIDView{c: c, ref: ref}) {
			return
		}
	}
}

// EUI64IIDs iterates only EUI-64 IIDs (those with /64 tracking). EUI-64
// IIDs are always promoted, so this walks the promoted slab directly.
func (c *Collector) EUI64IIDs(fn func(iid addr.IID, r IIDView) bool) {
	for i := uint32(0); i < c.iidRecs.n; i++ {
		e := c.iidRecs.at(i)
		if e.spans == spanNone {
			continue
		}
		if !fn(e.key, IIDView{c: c, ref: i | promotedTag}) {
			return
		}
	}
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
// server masks union, and per-/64 spans merge. The copy is deep — c
// never aliases o's slabs, so o may keep being written afterwards. This
// is how per-vantage (or per-shard) collectors combine into the study
// corpus.
//
// Everything o holds beyond its address records is a fold of them, so
// Merge reads nothing else.
func (c *Collector) Merge(o *Collector) {
	c.mergeAddrs(&o.addrTable)
	c.total += o.total
}

// mergeAddrs runs every record of t through the write core. The walk is
// in t's slab (insertion) order, which is uncorrelated with hash order:
// walking an index in slot order instead would insert into c in
// ascending home-slot order and, near c's load threshold, weld its
// probe runs into one (TestMergeSlotOrderPathology).
func (c *Collector) mergeAddrs(t *addrTable) {
	for i := uint32(0); i < t.addrRecs.n; i++ {
		e := t.addrRecs.at(i)
		c.observe(&e.key, &e.rec)
	}
}

// Absorb folds another collector's observations into c like Merge, but
// takes ownership of o — the donor must not be used afterwards. Three
// cases:
//
//   - An empty donor contributes only its observation total.
//   - Into an empty c, the donor's slabs, tables and prefix sets move
//     over wholesale: O(1), no record is touched. Restore-on-start
//     (ingest.Config.Seed) lands here.
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
	case c.addrRecs.n == 0 && c.iidUsed == 0:
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

// AbsorbBuffer folds a shard epoch into c and empties b: the same three
// cases as Absorb. Into an empty c the buffer's slab and index are
// adopted as they stand and one sequential pass over the slab derives
// the rest; otherwise each record goes through the write core. Pipeline
// shards partition addresses by hash, but an IID recurs across prefixes
// (EUI-64 interfaces that move, low-byte ::1 routers) and a shard's
// later epochs re-sight its own earlier addresses, so there is no
// shortcut for an address-disjoint buffer: IID state is shared anyway.
func (c *Collector) AbsorbBuffer(b *Buffer) {
	switch {
	case b.addrRecs.n == 0:
	case c.addrRecs.n == 0 && c.iidUsed == 0:
		c.adopt(b.addrTable)
	default:
		c.mergeAddrs(&b.addrTable)
	}
	c.total += b.total
	*b = Buffer{}
}

// adopt makes t the address table of c, which must hold no records, and
// derives the rest of c's state from it in one sequential pass over the
// slab. A shard epoch landing in an empty store and a checkpoint
// restore both end here.
func (c *Collector) adopt(t addrTable) {
	c.addrTable = t
	// At most one IID per address: sized once, not regrown 14 times.
	slots := tableSizeFor(uint64(c.addrRecs.n))
	c.iidTag, c.iidIdx = make([]uint8, slots), make([]uint32, slots)
	for i := uint32(0); i < c.addrRecs.n; i++ {
		e := c.addrRecs.at(i)
		c.derive(&e.key, i, &e.rec, true)
	}
}

// resizeIIDIdx rebuilds the IID table at the given power-of-two slot
// count. It walks the old slots in order, which fixes where every IID
// lands and so the order IIDs and IIDSlotsRange visit them in.
func (c *Collector) resizeIIDIdx(slots int) {
	old := c.iidIdx
	c.iidTag, c.iidIdx = make([]uint8, slots), make([]uint32, slots)
	for _, v := range old {
		if v == 0 {
			continue
		}
		h := mix64(uint64(c.iidKeyOf(v - 1)))
		pos := freeSlot(c.iidTag, h)
		c.iidTag[pos], c.iidIdx[pos] = hashTag(h), v
	}
}

// Unique48s returns the number of distinct /48 prefixes in the corpus
// (Table 1 column). O(1): the set is maintained on Observe/Merge.
func (c *Collector) Unique48s() int { return c.p48s.len() }

// Unique64s returns the number of distinct /64 prefixes in the corpus.
func (c *Collector) Unique64s() int { return c.p64s.len() }

// MemoryFootprint returns the corpus's resident bytes: record and span
// slabs, index tables with their tags, prefix sets and the dirty-block
// set. Unlike a map-based store the engine owns every allocation, so the
// figure is exact (modulo slice headers) — it is what daemons export as
// corpus_bytes telemetry.
func (c *Collector) MemoryFootprint() uint64 {
	return c.addrRecs.bytes() + c.iidRecs.bytes() + c.spans.bytes() +
		uint64(len(c.addrIdx))*4 + uint64(len(c.addrTag)) +
		uint64(len(c.iidIdx))*4 + uint64(len(c.iidTag)) +
		c.p48s.bytes() + c.p64s.bytes() + c.ckpt.dirty.bytes()
}
