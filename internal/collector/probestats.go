package collector

import "sort"

// AddrIndexStats describes the physical layout of the open-addressing
// address index: how far lookups actually walk from their home slot. A
// probe walks the slots' one-byte tags and reads a record only where a
// tag matches its key's, so a probe length counts tag bytes walked, not
// slab reads.
// The scenario matrix reads it under the adversarial collision profile,
// where every cluster address shares a home slot and probe runs grow
// with the cluster instead of staying O(1).
//
// Probe distances depend on insertion order and table history, which
// vary across merge orders and restore splits — these are observability
// numbers, never part of a determinism assertion.
type AddrIndexStats struct {
	// Slots is the table's current capacity; Used its occupied slots
	// (== NumAddrs).
	Slots, Used int
	// LoadFactor is Used/Slots (0 for an empty table).
	LoadFactor float64
	// MaxProbe is the longest probe sequence any present key requires:
	// the number of slots a Lookup inspects, home slot included.
	MaxProbe int
	// P50Probe/P99Probe are percentiles of that per-key probe length.
	P50Probe, P99Probe int
	// MeanProbe is its mean.
	MeanProbe float64
}

// AddrIndexStats measures the address index's probe-length
// distribution by walking every occupied slot back to its key's home
// position.
func (c *Collector) AddrIndexStats() AddrIndexStats {
	st := AddrIndexStats{Slots: len(c.addrTag)}
	if len(c.addrTag) == 0 {
		return st
	}
	mask := uint64(len(c.addrTag) - 1)
	lengths := make([]int, 0, c.addrRecs.n)
	var sum uint64
	for pos, tag := range c.addrTag {
		if tag == 0 {
			continue
		}
		home := c.addrRecs.at(c.addrIdx[pos]).key.Hash64() & mask
		// Linear probing with wraparound: the probe length is the
		// distance from home to the resting slot, inclusive.
		dist := int((uint64(pos)-home)&mask) + 1
		lengths = append(lengths, dist)
		sum += uint64(dist)
	}
	st.Used = len(lengths)
	if st.Used == 0 {
		return st
	}
	st.LoadFactor = float64(st.Used) / float64(st.Slots)
	sort.Ints(lengths)
	st.MaxProbe = lengths[len(lengths)-1]
	st.P50Probe = lengths[len(lengths)/2]
	st.P99Probe = lengths[len(lengths)*99/100]
	st.MeanProbe = float64(sum) / float64(st.Used)
	return st
}
