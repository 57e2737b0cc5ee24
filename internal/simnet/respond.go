package simnet

import (
	"time"

	"hitlist6/internal/addr"
)

// ProbeResult describes the outcome of one ICMPv6 probe into the world.
type ProbeResult struct {
	// Responded is true when any host answered the probe.
	Responded bool
	// FromAlias is true when the response came from an aliased prefix
	// (a single device answering for the whole network).
	FromAlias bool
	// Device is the responding device, nil for alias/router responses.
	Device *Device
	// Router is true when an infrastructure router answered.
	Router bool
}

// Probe delivers an unsolicited ICMPv6 echo request to dst at time t and
// reports what, if anything, answers. This is the single choke point both
// scanners (ZMap6 and Yarrp clones) use, so active and passive experiments
// see one consistent world.
func (w *World) Probe(dst addr.Addr, t time.Time) ProbeResult {
	n := w.asFor(dst)
	if n == nil {
		return ProbeResult{}
	}
	hi := dst.Hi()

	// Infra half of the AS space: routers and aliased prefixes.
	if hi&n.halfBit != 0 {
		if n.aliasSet[dst.P64()] {
			// Aliased prefixes answer for every address (§4.2); the
			// devices homed inside still answer individually, but a
			// prober cannot tell, which is exactly the paper's point.
			return ProbeResult{Responded: true, FromAlias: true}
		}
		if n.routerSet[dst] {
			return ProbeResult{Responded: true, Router: true}
		}
		return ProbeResult{}
	}

	// Customer half: recover the site from the slot the address implies.
	// Malformed addresses (stray bits between the routed prefix and the
	// slot field) are caught by the exact address comparison below.
	slot := (hi >> n.slotShift) & (n.slotCount() - 1)
	site := n.siteForSlot(t, w.Origin, slot)
	if site == nil {
		return ProbeResult{}
	}
	if d := site.deviceWithAddress(dst, t); d != nil {
		return ProbeResult{Responded: true, Device: d}
	}
	return ProbeResult{}
}

// deviceWithAddress finds a device (or the CPE) whose current address is
// exactly a, is powered on, and is not firewalled.
func (s *Site) deviceWithAddress(a addr.Addr, t time.Time) *Device {
	if s.cpe != nil && !s.cpe.firewalled && s.cpe.ActiveAt(t) && s.cpe.AddressAt(t) == a {
		return s.cpe
	}
	for _, d := range s.devices {
		if d.firewalled || !d.ActiveAt(t) {
			continue
		}
		if d.AddressAt(t) == a {
			return d
		}
	}
	return nil
}

// asFor maps an address to its origin asNet via the routing table.
func (w *World) asFor(a addr.Addr) *asNet {
	as := w.ASDB.Lookup(a)
	if as == nil {
		return nil
	}
	return w.asByASN[as.ASN]
}

// IsAliased reports whether the /64 is one of the world's aliased
// prefixes (ground truth, used to validate alias detection).
//
//lint:api the ground truth the alias-detection tests score against
func (w *World) IsAliased(p addr.Prefix64) bool {
	n := w.asFor(p.Addr())
	return n != nil && n.aliasSet[p]
}
