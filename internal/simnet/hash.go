// Package simnet implements the simulated IPv6 Internet that stands in for
// the live networks the paper measured. It models the phenomena every one
// of the paper's analyses depends on:
//
//   - ASes with routed prefixes, countries and ASdb-style types;
//   - customer sites holding delegated /56s (or single /64s) that rotate on
//     provider-specific schedules (§5.2 "likely prefix reassignment");
//   - devices with per-OS IID strategies: ephemeral privacy addresses
//     (RFC 4941), EUI-64 SLAAC, DHCPv6 counters, operator low-byte
//     addresses, and IPv4-embedded IIDs (Figure 5's seven categories);
//   - CPE firewalls that drop unsolicited inbound probes (§4.2);
//   - aliased /64s where every address responds (§4.2);
//   - device mobility between WiFi and cellular ASes, provider changes,
//     and vendor MAC reuse (§5.2's five tracking classes);
//   - router infrastructure with memorable low-byte IIDs discovered by
//     traceroute (the CAIDA dataset's near-zero entropy in Figure 1).
//
// All state is derived, not stored: a device's address at time t is a pure
// function of (device seed, site rotation epoch, IID epoch), so passive
// collection, later backscanning, and active scans all see a consistent
// world without a mutable global timeline. Determinism is total: one seed
// reproduces one Internet.
package simnet

import (
	"math"
	"time"
)

// mix64 is a SplitMix64-style finalizer: a fast, high-quality 64-bit mixing
// function used to derive all per-entity randomness from (seed, counter)
// pairs without storing state.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash2 combines two 64-bit values.
func hash2(a, b uint64) uint64 { return mix64(a ^ mix64(b)) }

// hash3 combines three 64-bit values.
func hash3(a, b, c uint64) uint64 { return mix64(a ^ mix64(b^mix64(c))) }

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Epoch indexing: the simulation measures time as seconds since the study
// start; schedules are derived from integer epoch numbers.

// epochOf returns which interval-sized epoch t falls in, relative to the
// study origin. A zero or negative interval means "never changes": epoch 0.
func epochOf(t time.Time, origin time.Time, interval time.Duration) uint64 {
	if interval <= 0 {
		return 0
	}
	return epochAt(t.Sub(origin), interval)
}

// epochAt is epochOf on an offset from the origin.
func epochAt(off, interval time.Duration) uint64 {
	if interval <= 0 || off < 0 {
		return 0
	}
	return uint64(off / interval)
}

// epochClock is epochAt for an offset that walks forward: it keeps its
// epoch's offsets, [from, to), so a step inside them divides nothing.
// Any offset gets the exact epoch; the zero range makes at derive it.
type epochClock struct {
	interval, from, to time.Duration
	e                  uint64
}

// at returns the epoch of off and whether it was derived anew.
func (c *epochClock) at(off time.Duration) (uint64, bool) {
	if c.from <= off && off < c.to {
		return c.e, false
	}
	c.e, c.from, c.to = epochAt(off, c.interval), 0, math.MaxInt64
	if c.interval > 0 {
		c.from = time.Duration(c.e) * c.interval
		c.to = c.from + c.interval
	}
	return c.e, true
}
