package collector

import "hitlist6/internal/addr"

// Parallel read plan: the slabs and index tables are plain arrays, so a
// reader can be handed any [lo, hi) index window and scan it without
// coordination. These range iterators are the collector's side of the
// analysis engine's fold contract (see internal/fold): a parallel scan
// partitions [0, N) into contiguous ranges — the slab chunks are the
// natural work unit — folds each range into a partial, and merges the
// partials in ascending range order, which reproduces the serial scan's
// element order exactly.
//
// A collector's reads must not run concurrently with Observe/Merge/Absorb
// (Store is the concurrency boundary for live ingest); a Records and the
// IIDTable folded from it are never written once built.

// AddrsRange iterates the (address, record) pairs with slab indices in
// [lo, hi), in slab (insertion) order; the callback returning false
// stops. CanonicalOrder is the order-stable walk.
func (c *Collector) AddrsRange(lo, hi int, fn func(a addr.Addr, r AddrRecord) bool) {
	for i := max(lo, 0); i < min(hi, int(c.addrRecs.n)); i++ {
		e := c.addrRecs.at(uint32(i))
		if !fn(e.key, e.rec.record()) {
			return
		}
	}
}

// AddrsRange is Collector.AddrsRange over r's columns, in the order r
// holds them (canonical once sorted), so one corpus fold reads either.
func (r *Records) AddrsRange(lo, hi int, fn func(a addr.Addr, rec AddrRecord) bool) {
	for i := max(lo, 0); i < min(hi, len(r.keys)); i++ {
		if !fn(r.keys[i], r.recs[i].record()) {
			return
		}
	}
}

// NumIIDSlots returns the size of the IID index table: the iteration
// space of IIDSlotsRange. Most slots are empty; the occupied ones are
// exactly the NumIIDs unique IIDs.
func (t *IIDTable) NumIIDSlots() int { return len(t.iidIdx) }

// IIDSlotsRange iterates the (IID, view) pairs whose index-table slots
// fall in [lo, hi), in slot order; the callback returning false stops.
// Covering [0, NumIIDSlots()) visits every IID.
func (t *IIDTable) IIDSlotsRange(lo, hi int, fn func(iid addr.IID, r IIDView) bool) {
	for i := max(lo, 0); i < min(hi, len(t.iidIdx)); i++ {
		v := t.iidIdx[i]
		if v == 0 {
			continue
		}
		ref := v - 1
		if !fn(t.iidKeyOf(ref), IIDView{t: t, ref: ref}) {
			return
		}
	}
}

// NumPromotedIIDs returns the size of the promoted IID slab: the
// iteration space of EUI64IIDsRange.
func (t *IIDTable) NumPromotedIIDs() int { return int(t.iidRecs.n) }

// EUI64IIDsRange iterates the tracked (EUI-64) IIDs whose promoted-slab
// indices fall in [lo, hi), in slab order; the callback returning false
// stops. Covering [0, NumPromotedIIDs()) visits exactly what EUI64IIDs
// does, in the same order.
func (t *IIDTable) EUI64IIDsRange(lo, hi int, fn func(iid addr.IID, r IIDView) bool) {
	for i := max(lo, 0); i < min(hi, int(t.iidRecs.n)); i++ {
		e := t.iidRecs.at(uint32(i))
		if e.spans == spanNone {
			continue
		}
		if !fn(e.key, IIDView{t: t, ref: uint32(i) | promotedTag}) {
			return
		}
	}
}
