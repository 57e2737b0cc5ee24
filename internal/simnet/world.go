package simnet

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
	"hitlist6/internal/geodb"
	"hitlist6/internal/oui"
	"hitlist6/internal/rng"
)

// World is a fully built simulated Internet. All methods are safe for
// concurrent readers once built.
type World struct {
	cfg    Config
	Origin time.Time
	End    time.Time

	ASDB *asdb.DB
	Geo  *geodb.DB
	OUI  *oui.Registry

	ases    []*asNet
	asByASN map[asdb.ASN]*asNet
	devices []*Device
	sites   []*Site

	// replays counts query-stream generations; see Replays.
	replays atomic.Uint64
}

// asNet is the runtime state of one AS.
type asNet struct {
	cfg     ASConfig
	seed    uint64
	baseHi  uint64 // routed prefix base, /32-aligned slab
	halfBit uint64 // bit splitting customer space from infra space
	// slotBits is the width of the customer slot field
	// (DelegationBits - RoutedBits - 1).
	slotBits int
	// windowBits is the active permutation window (<= slotBits), frozen
	// after world construction; see windowBitsFor.
	windowBits int
	slotShift  uint // 64 - DelegationBits
	infra48Hi  uint64
	alias48Hi  uint64
	sites      []*Site
	routerSet  map[addr.Addr]bool
	routers    []addr.Addr
	aliased    []addr.Prefix64 // aliased /64s, all within alias48
	aliasSet   map[addr.Prefix64]bool
	// outages are resolved AS-wide downtime windows.
	outages []outageSpan
}

// outageSpan is a resolved outage window, as offsets from the world's
// origin.
type outageSpan struct{ from, to time.Duration }

// downAt reports whether the AS is suffering an outage at Origin+off.
func (n *asNet) downAt(off time.Duration) bool {
	for _, o := range n.outages {
		if o.from <= off && off < o.to {
			return true
		}
	}
	return false
}

func (n *asNet) slotCount() uint64 { return 1 << n.slotBits }

// permBits returns the active permutation window width: windowBits once
// the world is frozen, the full slot space during construction.
func (n *asNet) permBits() int {
	if n.windowBits > 0 {
		return n.windowBits
	}
	return n.slotBits
}

// Build constructs a World from a Config. It is deterministic in
// Config.Seed.
func Build(cfg Config) (*World, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("simnet: Days must be positive")
	}
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("simnet: Scale must be positive")
	}
	if cfg.IIDLifetime <= 0 {
		cfg.IIDLifetime = 24 * time.Hour
	}
	if cfg.RoamInterval <= 0 {
		cfg.RoamInterval = 8 * time.Hour
	}
	w := &World{
		cfg:     cfg,
		Origin:  cfg.Start,
		End:     cfg.Start.AddDate(0, 0, cfg.Days),
		ASDB:    asdb.NewDB(),
		OUI:     oui.NewRegistry(cfg.SyntheticVendors),
		asByASN: make(map[asdb.ASN]*asNet),
	}
	rnd := rand.New(rng.NewSource(cfg.Seed))

	for i, ac := range cfg.ASes {
		if err := validateASConfig(ac); err != nil {
			return nil, fmt.Errorf("simnet: AS %d (%s): %w", ac.ASN, ac.Name, err)
		}
		n, err := w.buildAS(i, ac, rnd)
		if err != nil {
			return nil, err
		}
		w.ases = append(w.ases, n)
		w.asByASN[ac.ASN] = n
	}
	w.linkRoaming(rnd)
	w.applyProviderChurn(rnd)
	w.applyMACReuse(rnd)
	// Freeze each AS's slot window now that all sites (including cellular
	// attachments and churned-in sites) are placed: delegations permute
	// within a window ~4x the site count, packing customers into few /48s
	// the way real providers allocate densely from the bottom of their
	// space. This is what gives the passive corpus its high
	// addresses-per-/48 density (Table 1).
	for _, n := range w.ases {
		n.windowBits = windowBitsFor(len(n.sites), n.slotBits)
	}
	w.Geo = geodb.FromASDB(w.ASDB)
	return w, nil
}

// windowBitsFor sizes the slot permutation window: the smallest power of
// two holding 4x the sites, floored at 10 bits so prefix rotation crosses
// /48 boundaries (a /56-delegating AS's 1024-slot window spans four /48s,
// reproducing Fig 7a's cross-/48 renumbering), clamped to the full slot
// space.
func windowBitsFor(sites, slotBits int) int {
	bits := 10
	for 1<<bits < 4*sites {
		bits++
	}
	if bits > slotBits {
		bits = slotBits
	}
	return bits
}

func validateASConfig(ac ASConfig) error {
	if ac.RoutedBits < 33 || ac.RoutedBits > 47 {
		return fmt.Errorf("RoutedBits %d out of range [33,47]", ac.RoutedBits)
	}
	if ac.DelegationBits != 56 && ac.DelegationBits != 64 {
		return fmt.Errorf("DelegationBits must be 56 or 64, got %d", ac.DelegationBits)
	}
	if ac.DelegationBits-ac.RoutedBits-1 < 1 {
		return fmt.Errorf("no room for customer slots (/%d routed, /%d delegations)",
			ac.RoutedBits, ac.DelegationBits)
	}
	if ac.Sites < 0 || ac.Routers < 0 {
		return fmt.Errorf("negative Sites or Routers")
	}
	// Routers occupy the bottom /48s of the infra half; the alias /48
	// sits at its midpoint and must not collide.
	if half48s := 1 << (48 - ac.RoutedBits - 1); ac.Routers >= half48s/2 {
		return fmt.Errorf("Routers %d exceeds infra /48 budget %d", ac.Routers, half48s/2)
	}
	return nil
}

// routedPrefixFor returns the routed prefix and /32-aligned slab base
// of the idx-th configured AS: each AS owns a disjoint /32 slab under
// 2400::/12 and announces its first RoutedBits. Both Build and
// BuildASDB derive routing state from this one rule, so a routing DB
// built without a world attributes a world's addresses identically.
func routedPrefixFor(idx int, ac ASConfig) (addr.Prefix, uint64, error) {
	baseHi := uint64(0x24000000+idx) << 32
	p, err := addr.NewPrefix(addr.FromParts(baseHi, 0), ac.RoutedBits)
	return p, baseHi, err
}

// BuildASDB constructs only the routing database of a config's AS
// topology — the ASN/prefix/name/country table a full Build would
// produce, without sites, devices or churn. Live consumers attributing
// an external event stream to ASes (cmd/ingestd's outage detector) use
// it to avoid paying for world construction.
func BuildASDB(cfg Config) (*asdb.DB, error) {
	db := asdb.NewDB()
	for i, ac := range cfg.ASes {
		if err := validateASConfig(ac); err != nil {
			return nil, fmt.Errorf("simnet: AS %d (%s): %w", ac.ASN, ac.Name, err)
		}
		routed, _, err := routedPrefixFor(i, ac)
		if err != nil {
			return nil, err
		}
		if err := db.AddAS(asdb.AS{
			ASN: ac.ASN, Name: ac.Name, Country: ac.Country, Type: ac.Type,
			Prefixes: []addr.Prefix{routed},
		}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func (w *World) buildAS(idx int, ac ASConfig, rng *rand.Rand) (*asNet, error) {
	routed, baseHi, err := routedPrefixFor(idx, ac)
	if err != nil {
		return nil, err
	}
	n := &asNet{
		cfg:       ac,
		seed:      hash2(uint64(w.cfg.Seed), uint64(ac.ASN)),
		baseHi:    baseHi,
		halfBit:   1 << (63 - ac.RoutedBits),
		slotBits:  ac.DelegationBits - ac.RoutedBits - 1,
		slotShift: uint(64 - ac.DelegationBits),
		routerSet: make(map[addr.Addr]bool),
		aliasSet:  make(map[addr.Prefix64]bool),
	}
	// The infra half is carved into /48s: routers get one /48 each from
	// the bottom (so routed-/48 campaigns find ~1 address per /48, as
	// CAIDA does), and the alias /48 sits at the half's midpoint.
	n.infra48Hi = n.baseHi | n.halfBit
	half48s := uint64(1) << (48 - ac.RoutedBits - 1)
	n.alias48Hi = n.infra48Hi | (half48s/2)<<16

	for _, o := range ac.Outages {
		from := w.Origin.AddDate(0, 0, o.StartDay).Sub(w.Origin)
		n.outages = append(n.outages, outageSpan{
			from: from,
			to:   from + time.Duration(o.Hours)*time.Hour,
		})
	}

	if err := w.ASDB.AddAS(asdb.AS{
		ASN: ac.ASN, Name: ac.Name, Country: ac.Country, Type: ac.Type,
		Prefixes: []addr.Prefix{routed},
	}); err != nil {
		return nil, err
	}

	// Infrastructure routers: memorable low-byte IIDs, one router per
	// infra /48 — exactly the addresses traceroute discovers, at the
	// paper's CAIDA density of ~1 address per /48. Router counts scale
	// with the world so infrastructure keeps its relative share.
	numRouters := int(float64(ac.Routers)*w.cfg.Scale + 0.5)
	if numRouters < 2 {
		numRouters = 2
	}
	if numRouters > ac.Routers {
		numRouters = ac.Routers
	}
	for j := 0; j < numRouters; j++ {
		a := addr.FromParts(n.infra48Hi|uint64(j)<<16, uint64(1+j%4))
		n.routers = append(n.routers, a)
		n.routerSet[a] = true
	}

	// Aliased /64s inside the alias /48.
	for j := 0; j < ac.AliasedPrefixes; j++ {
		p := addr.Prefix64(n.alias48Hi | uint64(j))
		n.aliased = append(n.aliased, p)
		n.aliasSet[p] = true
	}

	// Customer sites. Aliased-site counts scale with the site count so
	// that the aliased share of the population is scale-invariant.
	numSites := int(float64(ac.Sites)*w.cfg.Scale + 0.5)
	numAliasedSites := int(float64(ac.AliasedSites)*w.cfg.Scale + 0.5)
	for s := 0; s < numSites; s++ {
		site := &Site{
			seed: hash3(n.seed, uint64(s), 0x517e),
			as:   n,
			idx:  s,
		}
		if s < numAliasedSites && len(n.aliased) > 0 {
			site.aliased = true
			site.alias64 = n.aliased[s%len(n.aliased)]
		}
		n.sites = append(n.sites, site)
		w.sites = append(w.sites, site)
		w.populateSite(site, rng)
	}
	return n, nil
}

// populateSite creates the site's CPE and client devices.
func (w *World) populateSite(site *Site, rng *rand.Rand) {
	ac := site.as.cfg
	mobileCarrier := ac.DelegationBits == 64

	if !mobileCarrier {
		// Residential/hosting sites get a CPE on subnet 0.
		cpe := w.newDevice(site, KindCPE, rng)
		cpe.Strategy = ac.CPEStrategy
		if cpe.Strategy == StratEUI64 {
			cpe.setMAC(w.mintVendorMAC(rng, ac.CPEVendor, KindCPE))
		}
		cpe.subnet = 0
		cpe.firewalled = rng.Float64() < 0.15 // CPE mostly respond (§4.2)
		cpe.rate = ac.QueryRatePerDay * 2
		cpe.usesPool = rng.Float64() < poolShare(KindCPE)
		site.cpe = cpe
	}

	nDev := ac.DevicesPerSiteMin
	if ac.DevicesPerSiteMax > ac.DevicesPerSiteMin {
		nDev += rng.Intn(ac.DevicesPerSiteMax - ac.DevicesPerSiteMin + 1)
	}
	for i := 0; i < nDev; i++ {
		kind := w.pickKind(ac, rng)
		d := w.newDevice(site, kind, rng)
		d.Strategy = ac.ClientMix.pick(rng.Uint64())
		if d.Strategy == StratEUI64 {
			d.setMAC(w.mintVendorMAC(rng, "", kind))
		}
		if d.Strategy == StratV4Embedded {
			d.v4 = uint32(rng.Int63n(1 << 32))
		}
		if d.Strategy == StratDHCPCounter {
			d.dhcpIdx = uint16(0x100 + rng.Intn(0x400))
		}
		if mobileCarrier {
			d.subnet = 0
		} else {
			d.subnet = byte(1 + rng.Intn(255))
		}
		d.firewalled = rng.Float64() < ac.FirewallProb
		d.rate = ac.QueryRatePerDay * kindRateFactor(kind)
		d.usesPool = rng.Float64() < poolShare(kind)

		// Activity window: a fraction of devices are present for the whole
		// study; the rest appear for a limited window, producing the large
		// observed-once population of Figure 2(a).
		switch {
		case rng.Float64() < 0.35:
			d.activeFrom, d.activeTo = w.Origin, w.End
		default:
			studySec := w.End.Sub(w.Origin).Seconds()
			start := w.Origin.Add(time.Duration(rng.Float64()*studySec) * time.Second)
			dur := time.Duration(rng.ExpFloat64() * float64(21*24*time.Hour))
			d.activeFrom, d.activeTo = start, minTime(start.Add(dur), w.End)
		}
	}
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// poolShare is the fraction of each device class that points at the NTP
// Pool rather than a vendor time service (§2.3: Windows/Apple/modern
// Android never visit the Pool; Linux distributions and IoT vendor zones
// do).
func poolShare(k DeviceKind) float64 {
	switch k {
	case KindPhone:
		return 0.50
	case KindComputer:
		return 0.60
	case KindIoT:
		return 0.80
	case KindServer:
		return 0.35
	case KindCPE:
		return 0.45
	default:
		return 0.5
	}
}

func kindRateFactor(k DeviceKind) float64 {
	switch k {
	case KindIoT:
		return 3
	case KindServer:
		return 5
	case KindComputer:
		return 1.3
	case KindCPE:
		return 2
	default:
		return 1
	}
}

func (w *World) pickKind(ac ASConfig, rng *rand.Rand) DeviceKind {
	switch ac.Type {
	case asdb.TypePhoneProvider:
		return KindPhone
	case asdb.TypeHosting:
		return KindServer
	default:
		x := rng.Float64()
		switch {
		case x < 0.35:
			return KindPhone
		case x < 0.62:
			return KindComputer
		default:
			return KindIoT
		}
	}
}

// mintVendorMAC draws a MAC for an EUI-64 device. The paper finds 73.9% of
// embedded MACs resolve to no registered vendor, led by phantom OUIs like
// F0:02:20; we reproduce that bias, weighting listed vendors by their
// Table 2 counts.
func (w *World) mintVendorMAC(rng *rand.Rand, forced string, kind DeviceKind) addr.MAC {
	if forced != "" {
		m, err := w.OUI.MintMAC(rng, forced)
		if err == nil {
			return m
		}
	}
	phantomProb := 0.78
	if kind == KindIoT {
		phantomProb = 0.85
	}
	if rng.Float64() < phantomProb {
		return w.OUI.MintPhantomMAC(rng)
	}
	m, err := w.OUI.MintMAC(rng, pickTable2Vendor(rng))
	if err != nil {
		return w.OUI.MintPhantomMAC(rng)
	}
	return m
}

// table2Weights are the Table 2 listed-manufacturer counts (in thousands).
var table2Weights = []struct {
	name   string
	weight float64
}{
	{"Amazon Technologies Inc.", 19090},
	{"Samsung Electronics Co.,Ltd", 2684},
	{"Sonos, Inc.", 1633},
	{"vivo Mobile Communication Co., Ltd.", 1331},
	{"Sunnovo International Limited", 1194},
	{"Hui Zhou Gaoshengda Technology Co.,LTD", 1067},
	{"Huawei Technologies", 876},
	{"Shenzhen Chuangwei-RGB Electronics", 861},
	{"Skyworth Digital Technology (Shenzhen) Co.,Ltd", 723},
}

func pickTable2Vendor(rng *rand.Rand) string {
	var total float64
	for _, v := range table2Weights {
		total += v.weight
	}
	x := rng.Float64() * total
	for _, v := range table2Weights {
		if x < v.weight {
			return v.name
		}
		x -= v.weight
	}
	return table2Weights[0].name
}

func (w *World) newDevice(site *Site, kind DeviceKind, rng *rand.Rand) *Device {
	d := &Device{
		seed:       hash3(site.seed, uint64(len(site.devices)), 0xdef1ce),
		Kind:       kind,
		site:       site,
		activeFrom: w.Origin,
		activeTo:   w.End,
		world:      w,
	}
	site.devices = append(site.devices, d)
	w.devices = append(w.devices, d)
	return d
}

// linkRoaming attaches cellular sites to roaming phones in residential
// ASes. Each roaming phone gets a dedicated /64 slot in a carrier AS and
// splits its time between home WiFi and cellular (§5.2 "likely user
// movement", Fig 7d).
func (w *World) linkRoaming(rng *rand.Rand) {
	var carriers []*asNet
	for _, n := range w.ases {
		if n.cfg.Type == asdb.TypePhoneProvider {
			carriers = append(carriers, n)
		}
	}
	if len(carriers) == 0 {
		return
	}
	for _, n := range w.ases {
		if n.cfg.MobileFraction <= 0 || n.cfg.Type == asdb.TypePhoneProvider {
			continue
		}
		for _, site := range n.sites {
			for _, d := range site.devices {
				if d.Kind != KindPhone || rng.Float64() >= n.cfg.MobileFraction {
					continue
				}
				// Prefer a carrier in the same country.
				var carrier *asNet
				for _, c := range carriers {
					if c.cfg.Country == n.cfg.Country {
						carrier = c
						break
					}
				}
				if carrier == nil {
					carrier = carriers[rng.Intn(len(carriers))]
				}
				cell := &Site{
					seed: hash3(carrier.seed, uint64(len(carrier.sites)), 0xce11),
					as:   carrier,
					idx:  len(carrier.sites),
				}
				cell.devices = []*Device{d}
				carrier.sites = append(carrier.sites, cell)
				w.sites = append(w.sites, cell)
				d.cellSite = cell
				d.roamSalt = rng.Uint64()
			}
		}
	}
}

// applyProviderChurn moves a fraction of sites to a different provider at
// a mid-study date (Fig 7c: Telefonica Brasil -> Nova Santos Telecom).
func (w *World) applyProviderChurn(rng *rand.Rand) {
	var residential []*asNet
	for _, n := range w.ases {
		if n.cfg.Type == asdb.TypeISP {
			residential = append(residential, n)
		}
	}
	if len(residential) < 2 {
		return
	}
	studySec := w.End.Sub(w.Origin).Seconds()
	for _, n := range residential {
		if n.cfg.ProviderChurn <= 0 {
			continue
		}
		for _, site := range n.sites {
			// Only home sites churn, once: a site that already switched
			// into this AS must not be bounced again (it could land back
			// on its original provider).
			if site.aliased || site.as != n || site.as2 != nil {
				continue
			}
			if rng.Float64() >= n.cfg.ProviderChurn {
				continue
			}
			// Prefer a same-country provider: a household switching ISPs
			// stays in its country.
			var target *asNet
			perm := rng.Perm(len(residential))
			for _, i := range perm {
				cand := residential[i]
				if cand != n && cand.cfg.Country == n.cfg.Country {
					target = cand
					break
				}
			}
			if target == nil {
				for _, i := range perm {
					if residential[i] != n {
						target = residential[i]
						break
					}
				}
			}
			if target == nil {
				continue
			}
			site.as2 = target
			site.idx2 = len(target.sites)
			target.sites = append(target.sites, site)
			// Switch somewhere in the middle 60% of the study.
			frac := 0.2 + 0.6*rng.Float64()
			site.switchOff = time.Duration(frac*studySec) * time.Second
			site.switchAt = w.Origin.Add(site.switchOff)
		}
	}
}

// applyMACReuse makes groups of EUI-64 devices in distinct ASes share one
// MAC (Fig 7b: one MAC in 70 ASes). Manufacturers reusing address space
// produce simultaneous sightings of "one" identifier in many networks.
func (w *World) applyMACReuse(rng *rand.Rand) {
	if w.cfg.MACReuseGroups <= 0 || w.cfg.MACReuseSize <= 1 {
		return
	}
	// Group size scales with the world so reuse stays a rare phenomenon
	// (0.01% of trackable MACs in the paper) at any scale.
	groupSize := int(float64(w.cfg.MACReuseSize)*w.cfg.Scale + 0.5)
	if groupSize < 2 {
		groupSize = 2
	}
	byAS := make(map[asdb.ASN][]*Device)
	var asns []asdb.ASN
	for _, d := range w.devices {
		// CPE are excluded (vendor MAC reuse is an IoT/client phenomenon,
		// and the geolocation experiment needs CPE MACs intact), as are
		// roaming phones (their MACs must stay unique so §5.2's "likely
		// user movement" class remains observable).
		if d.Strategy != StratEUI64 || d.reused || d.Kind == KindCPE || d.cellSite != nil {
			continue
		}
		asn := d.site.as.cfg.ASN
		if len(byAS[asn]) == 0 {
			asns = append(asns, asn)
		}
		byAS[asn] = append(byAS[asn], d)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	if len(asns) < 2 {
		return
	}
	for g := 0; g < w.cfg.MACReuseGroups; g++ {
		// Collect candidates first, cycling across ASes (staggered by
		// group) so every group spans several networks; only commit the
		// shared MAC when at least two distinct ASes are represented.
		var chosen []*Device
		asnsUsed := make(map[asdb.ASN]bool)
		for i := 0; len(chosen) < groupSize && i < len(asns)*4; i++ {
			asn := asns[(g+i)%len(asns)]
			pool := byAS[asn]
			if len(pool) == 0 {
				continue
			}
			chosen = append(chosen, pool[len(pool)-1])
			byAS[asn] = pool[:len(pool)-1]
			asnsUsed[asn] = true
		}
		if len(asnsUsed) < 2 {
			// Not enough diversity left; put the devices back and stop.
			for _, d := range chosen {
				asn := d.site.as.cfg.ASN
				byAS[asn] = append(byAS[asn], d)
			}
			break
		}
		shared := w.OUI.MintPhantomMAC(rng)
		for _, d := range chosen {
			d.setMAC(shared)
			d.reused = true
		}
	}
}

// Config returns the configuration the world was built from.
func (w *World) Config() Config { return w.cfg }

// Devices returns every device (phones, computers, IoT, servers, CPE).
func (w *World) Devices() []*Device { return w.devices }

// Sites returns every customer site, including cellular attachments.
func (w *World) Sites() []*Site { return w.sites }

// Routers returns every infrastructure router address, per AS, in
// deterministic order.
func (w *World) Routers() []addr.Addr {
	var out []addr.Addr
	for _, n := range w.ases {
		out = append(out, n.routers...)
	}
	return out
}

// AliasedPrefixes returns every aliased /64.
func (w *World) AliasedPrefixes() []addr.Prefix64 {
	var out []addr.Prefix64
	for _, n := range w.ases {
		out = append(out, n.aliased...)
	}
	return out
}

// IIDLifetime returns the privacy-address regeneration interval.
func (w *World) IIDLifetime() time.Duration { return w.cfg.IIDLifetime }
