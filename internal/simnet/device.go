package simnet

import (
	"time"

	"hitlist6/internal/addr"
)

// Device is one host in the simulated Internet. Its address at any time
// is a pure function of its seed and the world's schedule parameters.
type Device struct {
	seed     uint64
	world    *World
	Kind     DeviceKind
	Strategy IIDStrategy

	// mac is set for EUI-64 devices (and any device the builder gives a
	// MAC, e.g. AVM CPE).
	mac    addr.MAC
	hasMAC bool
	reused bool // MAC shared across devices (MAC-reuse group)

	site     *Site // home attachment
	cellSite *Site // cellular attachment for roaming phones
	roamSalt uint64

	subnet     byte
	firewalled bool
	// usesPool is whether the device's OS points at pool.ntp.org at all:
	// Windows, Apple and post-Oreo Android devices use vendor time
	// servers instead (§2.3), so they exist, respond to scans, and appear
	// in DNS — but never in the passive corpus.
	usesPool bool
	rate     float64 // mean NTP queries per day
	v4       uint32  // for StratV4Embedded
	dhcpIdx  uint16  // for StratDHCPCounter

	activeFrom, activeTo time.Time
}

// MAC returns the device MAC address and whether it has one.
func (d *Device) MAC() (addr.MAC, bool) { return d.mac, d.hasMAC }

func (d *Device) setMAC(m addr.MAC) { d.mac, d.hasMAC = m, true }

// HomeSite returns the device's home attachment.
func (d *Device) HomeSite() *Site { return d.site }

// Roams reports whether the device splits time between home WiFi and a
// cellular carrier.
func (d *Device) Roams() bool { return d.cellSite != nil }

// Firewalled reports whether the device drops unsolicited probes.
func (d *Device) Firewalled() bool { return d.firewalled }

// QueryRate returns the device's mean NTP queries/day.
func (d *Device) QueryRate() float64 { return d.rate }

// UsesPool reports whether the device synchronizes against the NTP Pool
// (as opposed to a vendor time service).
func (d *Device) UsesPool() bool { return d.usesPool }

// ActiveWindow returns the interval during which the device is powered on.
func (d *Device) ActiveWindow() (from, to time.Time) {
	return d.activeFrom, d.activeTo
}

// ActiveAt reports whether the device is powered on and connected at t:
// inside its activity window and not cut off by an AS-wide outage.
func (d *Device) ActiveAt(t time.Time) bool {
	if t.Before(d.activeFrom) || t.After(d.activeTo) {
		return false
	}
	n, _ := d.SiteAt(t).asAt(t)
	return len(n.outages) == 0 || !n.downAt(t.Sub(d.world.Origin))
}

// SiteAt returns the site the device is attached to at time t: roaming
// phones alternate between home and cellular on the world's RoamInterval.
func (d *Device) SiteAt(t time.Time) *Site {
	if d.cellSite == nil {
		return d.site
	}
	return d.siteFor(epochOf(t, d.world.Origin, d.world.cfg.RoamInterval))
}

// siteFor returns a roaming device's site in roam epoch e.
func (d *Device) siteFor(e uint64) *Site {
	// Roughly half the roam epochs are spent on cellular.
	if hash3(d.seed^d.roamSalt, e, 0x40a3)&1 == 1 {
		return d.cellSite
	}
	return d.site
}

// subnetOn returns the site subnet the device occupies while on site.
func (d *Device) subnetOn(site *Site) byte {
	if site != d.site {
		return 0 // cellular /64 delegations have a single subnet
	}
	return d.subnet
}

// Prefix64At returns the /64 the device sits in at time t.
func (d *Device) Prefix64At(t time.Time) addr.Prefix64 {
	site := d.SiteAt(t)
	return site.Subnet64(t, d.world.Origin, d.subnetOn(site))
}

// IIDAt returns the device's Interface Identifier at time t within the
// /64 it occupies then. Stable strategies ignore t; RFC 7217-style stable
// random IIDs depend on the prefix; privacy addresses depend on the IID
// epoch.
func (d *Device) IIDAt(t time.Time, p64 addr.Prefix64) addr.IID {
	return d.iidFor(epochOf(t, d.world.Origin, d.iidLifetime()), p64)
}

// iidLifetime is how long the device keeps an IID: the world's IID
// lifetime for strategies that regenerate, 0 (never) for the rest.
func (d *Device) iidLifetime() time.Duration {
	if d.Strategy == StratPrivacy || d.Strategy == StratRandomLow4 {
		return d.world.cfg.IIDLifetime
	}
	return 0
}

// iidFor returns the device's IID in IID epoch e within p64.
func (d *Device) iidFor(e uint64, p64 addr.Prefix64) addr.IID {
	switch d.Strategy {
	case StratPrivacy:
		return addr.IID(hash3(d.seed, e, 0x9f1d))
	case StratStableRandom:
		return addr.IID(hash3(d.seed, uint64(p64), 0x57ab))
	case StratEUI64:
		return addr.EUI64FromMAC(d.mac)
	case StratLowByte:
		return addr.IID(1 + d.seed%250)
	case StratLow2Bytes:
		return addr.IID(0x100 + d.seed%0xfe00)
	case StratDHCPCounter:
		return addr.IID(uint64(d.dhcpIdx))
	case StratV4Embedded:
		return addr.IID(uint64(d.v4))
	case StratRandomLow4:
		return addr.IID(hash3(d.seed, e, 0x1074) & 0xffffffff)
	default:
		return addr.IID(hash3(d.seed, 0, 0))
	}
}

// AddressAt returns the device's full IPv6 address at time t.
func (d *Device) AddressAt(t time.Time) addr.Addr {
	p64 := d.Prefix64At(t)
	return addr.FromParts(uint64(p64), uint64(d.IIDAt(t, p64)))
}

// ASNAt returns the origin ASN of the device's address at time t.
func (d *Device) ASNAt(t time.Time) uint32 {
	return d.SiteAt(t).ASNAt(t)
}

// addrCursor walks one device's address schedule forward on offsets from
// the world's origin, rederiving the address through AddressAt's
// per-epoch helpers only when the roam site, serving AS, rotation epoch
// or IID epoch changes.
type addrCursor struct {
	d               *Device
	roam, rot, life epochClock
	roamSite, site  *Site
	n               *asNet
	p64, iidP64     addr.Prefix64
	iid             addr.IID
}

// at returns the device's address at Origin+off and whether the device
// is connected then (ActiveAt, given off inside the activity window).
func (c *addrCursor) at(off time.Duration) (addr.Addr, bool) {
	d, site := c.d, c.d.site
	if d.cellSite != nil {
		if e, moved := c.roam.at(off); moved {
			c.roamSite = d.siteFor(e)
		}
		site = c.roamSite
	}
	n, idx := site.as, site.idx
	if site.as2 != nil && off >= site.switchOff {
		n, idx = site.as2, site.idx2
	}
	if n.downAt(off) {
		return addr.Addr{}, false
	}
	if site != c.site || n != c.n {
		c.site, c.n, c.rot = site, n, epochClock{interval: n.cfg.RotationInterval}
	}
	if e, moved := c.rot.at(off); moved {
		c.p64 = site.prefix64For(n, idx, e, d.subnetOn(site))
	}
	if e, moved := c.life.at(off); moved || c.p64 != c.iidP64 {
		c.iid, c.iidP64 = d.iidFor(e, c.p64), c.p64
	}
	return addr.FromParts(uint64(c.p64), uint64(c.iid)), true
}
