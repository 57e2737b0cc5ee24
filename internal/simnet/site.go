package simnet

import (
	"time"

	"hitlist6/internal/addr"
)

// Site is one customer attachment: a delegated prefix within an AS holding
// a CPE and client devices. Cellular attachments are single-device sites
// in carrier ASes. A site's delegated prefix at time t is a pure function
// of (site index, the AS's rotation epoch at t), implemented as an
// epoch-keyed affine permutation of the slot space so the mapping is
// invertible — Respond can recover the site from a probed address.
type Site struct {
	seed uint64
	as   *asNet
	idx  int

	// Provider change (Fig 7c): after switchAt the site lives in as2 at
	// slot idx2, switchOff after the world's origin. A zero switchAt
	// means the site never moves.
	as2       *asNet
	idx2      int
	switchAt  time.Time
	switchOff time.Duration

	// aliased sites live inside one of the AS's aliased /64s.
	aliased bool
	alias64 addr.Prefix64

	devices []*Device
	cpe     *Device
}

// asAt returns the AS (and the slot index) serving the site at time t.
func (s *Site) asAt(t time.Time) (*asNet, int) {
	if s.as2 != nil && !s.switchAt.IsZero() && !t.Before(s.switchAt) {
		return s.as2, s.idx2
	}
	return s.as, s.idx
}

// ASNAt returns the site's origin ASN at time t.
func (s *Site) ASNAt(t time.Time) uint32 {
	n, _ := s.asAt(t)
	return uint32(n.cfg.ASN)
}

// affinePerm maps a slot index through the epoch-keyed permutation
// slot = (a*idx + b) mod 2^k with a odd (hence invertible mod 2^k).
func affinePerm(seed, epoch uint64, idx uint64, bits int) uint64 {
	mask := uint64(1)<<bits - 1
	a := hash3(seed, epoch, 0xa0a0) | 1
	b := hash3(seed, epoch, 0xb0b0)
	return (a*idx + b) & mask
}

// affinePermInv inverts affinePerm for the same (seed, epoch, bits).
func affinePermInv(seed, epoch uint64, slot uint64, bits int) uint64 {
	mask := uint64(1)<<bits - 1
	a := hash3(seed, epoch, 0xa0a0) | 1
	b := hash3(seed, epoch, 0xb0b0)
	// Newton's iteration for the inverse of an odd number mod 2^64:
	// each step doubles the number of correct low bits.
	inv := a
	for i := 0; i < 5; i++ {
		inv *= 2 - a*inv
	}
	return ((slot - b) * inv) & mask
}

// slotFor returns the customer slot of site index idx in rotation
// epoch e.
func (n *asNet) slotFor(idx int, e uint64) uint64 {
	return affinePerm(n.seed, e, uint64(idx), n.permBits())
}

// slotAt returns the customer slot the site occupies at time t within the
// AS serving it then.
func (s *Site) slotAt(t time.Time, origin time.Time) (n *asNet, slot uint64) {
	n, idx := s.asAt(t)
	return n, n.slotFor(idx, epochOf(t, origin, n.cfg.RotationInterval))
}

// Subnet64 returns the /64 holding the given site subnet at time t.
// For /64-delegation (mobile) sites the subnet argument must be 0.
func (s *Site) Subnet64(t time.Time, origin time.Time, subnet byte) addr.Prefix64 {
	n, idx := s.asAt(t)
	return s.prefix64For(n, idx, epochOf(t, origin, n.cfg.RotationInterval), subnet)
}

// prefix64For is Subnet64 while the site is slot index idx of AS n, in
// n's rotation epoch e.
func (s *Site) prefix64For(n *asNet, idx int, e uint64, subnet byte) addr.Prefix64 {
	if s.aliased {
		return s.alias64
	}
	hi := n.baseHi | n.slotFor(idx, e)<<n.slotShift
	if n.cfg.DelegationBits == 56 {
		hi |= uint64(subnet)
	}
	return addr.Prefix64(hi)
}

// Delegated returns the site's full delegated prefix at time t (/56 or
// /64 depending on the serving AS).
func (s *Site) Delegated(t time.Time, origin time.Time) addr.Prefix {
	n, slot := s.slotAt(t, origin)
	if s.aliased {
		return s.alias64.Prefix()
	}
	hi := n.baseHi | slot<<n.slotShift
	return addr.MustPrefix(addr.FromParts(hi, 0), n.cfg.DelegationBits)
}

// Devices returns the site's client devices (excluding the CPE).
func (s *Site) Devices() []*Device { return s.devices }

// Country returns the site's physical country: where the household is.
// It does not change when the site switches providers (the paper's Fig 7c
// device moved between two *Brazilian* ISPs).
func (s *Site) Country() string { return s.as.cfg.Country }

// JitterUV returns two deterministic values in [0, 1) unique to the site,
// used by the wardriving simulator to place the household within its
// country.
func (s *Site) JitterUV() (float64, float64) {
	return unit(hash2(s.seed, 0x6e0)), unit(hash2(s.seed, 0x6e1))
}

// CPE returns the site's CPE device, nil for cellular attachments.
func (s *Site) CPE() *Device { return s.cpe }

// siteForSlot inverts slotAt: given a slot observed at time t, return the
// site occupying it, or nil. The caller must then verify the full address
// matches, since unoccupied slots alias to out-of-range site indices.
func (n *asNet) siteForSlot(t time.Time, origin time.Time, slot uint64) *Site {
	e := epochOf(t, origin, n.cfg.RotationInterval)
	if slot >= 1<<n.permBits() {
		return nil
	}
	idx := affinePermInv(n.seed, e, slot, n.permBits())
	if idx >= uint64(len(n.sites)) {
		return nil
	}
	site := n.sites[idx]
	// The site must actually be served by this AS at t (provider churn
	// moves sites between ASes).
	cur, curIdx := site.asAt(t)
	if cur != n || uint64(curIdx) != idx {
		return nil
	}
	if site.aliased {
		return nil // aliased sites do not occupy customer slots
	}
	return site
}
