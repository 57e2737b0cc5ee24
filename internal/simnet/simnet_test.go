package simnet

import (
	"testing"
	"testing/quick"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
)

// tinyConfig is a fast world for unit tests.
func tinyConfig(seed int64) Config {
	cfg := DefaultConfig(seed, 0.05)
	cfg.Days = 30
	return cfg
}

func buildTiny(t testing.TB, seed int64) *World {
	t.Helper()
	w, err := Build(tinyConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildValidation(t *testing.T) {
	bad := tinyConfig(1)
	bad.Days = 0
	if _, err := Build(bad); err == nil {
		t.Error("Days=0 should fail")
	}
	bad = tinyConfig(1)
	bad.Scale = 0
	if _, err := Build(bad); err == nil {
		t.Error("Scale=0 should fail")
	}
	bad = tinyConfig(1)
	bad.ASes = []ASConfig{{ASN: 1, RoutedBits: 8, DelegationBits: 56}}
	if _, err := Build(bad); err == nil {
		t.Error("RoutedBits=8 should fail")
	}
	bad = tinyConfig(1)
	bad.ASes = []ASConfig{{ASN: 1, RoutedBits: 40, DelegationBits: 60}}
	if _, err := Build(bad); err == nil {
		t.Error("DelegationBits=60 should fail")
	}
}

func TestWorldDeterminism(t *testing.T) {
	w1 := buildTiny(t, 99)
	w2 := buildTiny(t, 99)
	if len(w1.Devices()) != len(w2.Devices()) {
		t.Fatalf("device counts differ: %d vs %d", len(w1.Devices()), len(w2.Devices()))
	}
	mid := w1.Origin.Add(13 * 24 * time.Hour)
	for i := range w1.Devices() {
		a1 := w1.Devices()[i].AddressAt(mid)
		a2 := w2.Devices()[i].AddressAt(mid)
		if a1 != a2 {
			t.Fatalf("device %d addresses differ: %s vs %s", i, a1, a2)
		}
	}
}

func TestAddressesRoutedToOwnAS(t *testing.T) {
	w := buildTiny(t, 3)
	mid := w.Origin.Add(7 * 24 * time.Hour)
	for _, d := range w.Devices() {
		a := d.AddressAt(mid)
		as := w.ASDB.Lookup(a)
		if as == nil {
			t.Fatalf("device address %s is unrouted", a)
		}
		if uint32(as.ASN) != d.ASNAt(mid) {
			t.Fatalf("device address %s: LPM says AS%d, device says AS%d",
				a, as.ASN, d.ASNAt(mid))
		}
	}
}

// TestProbeFindsCurrentAddresses is the central consistency property: a
// probe to a non-firewalled device's current address must get a response,
// and the responder must be that device.
func TestProbeFindsCurrentAddresses(t *testing.T) {
	w := buildTiny(t, 4)
	times := []time.Time{
		w.Origin.Add(time.Hour),
		w.Origin.Add(5 * 24 * time.Hour),
		w.Origin.Add(20 * 24 * time.Hour),
	}
	checked := 0
	for _, d := range w.Devices() {
		if d.Firewalled() {
			continue
		}
		for _, tm := range times {
			if !d.ActiveAt(tm) {
				continue
			}
			a := d.AddressAt(tm)
			res := w.Probe(a, tm)
			if !res.Responded {
				t.Fatalf("probe to live device address %s at %v got no response (kind=%v strat=%v aliased=%v)",
					a, tm, d.Kind, d.Strategy, d.SiteAt(tm).aliased)
			}
			if !res.FromAlias && res.Device != d {
				t.Fatalf("probe to %s answered by wrong device", a)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("too few probe checks ran: %d", checked)
	}
}

func TestProbeFirewalledSilent(t *testing.T) {
	w := buildTiny(t, 5)
	tm := w.Origin.Add(48 * time.Hour)
	tested := 0
	for _, d := range w.Devices() {
		if !d.Firewalled() || !d.ActiveAt(tm) || d.SiteAt(tm).aliased {
			continue
		}
		if res := w.Probe(d.AddressAt(tm), tm); res.Responded {
			t.Fatalf("firewalled device %s responded", d.AddressAt(tm))
		}
		tested++
	}
	if tested == 0 {
		t.Fatal("no firewalled devices in tiny world")
	}
}

func TestProbeStaleAddressSilent(t *testing.T) {
	w := buildTiny(t, 6)
	early := w.Origin.Add(2 * time.Hour)
	late := w.Origin.Add(25 * 24 * time.Hour)
	stale := 0
	for _, d := range w.Devices() {
		if d.Strategy != StratPrivacy || d.SiteAt(early).aliased {
			continue
		}
		aEarly := d.AddressAt(early)
		if d.AddressAt(late) == aEarly {
			continue // address happened to persist
		}
		if res := w.Probe(aEarly, late); res.Responded && res.Device == d {
			t.Fatalf("stale address %s still answered by same device weeks later", aEarly)
		}
		stale++
		if stale > 200 {
			break
		}
	}
	if stale == 0 {
		t.Fatal("no ephemeral devices found")
	}
}

func TestAliasedPrefixRespondsToAnything(t *testing.T) {
	w := buildTiny(t, 7)
	aliased := w.AliasedPrefixes()
	if len(aliased) == 0 {
		t.Fatal("tiny world has no aliased prefixes")
	}
	tm := w.Origin.Add(time.Hour)
	f := func(iid uint64) bool {
		p := aliased[iid%uint64(len(aliased))]
		a := addr.FromParts(uint64(p), iid)
		res := w.Probe(a, tm)
		return res.Responded && res.FromAlias
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, p := range aliased {
		if !w.IsAliased(p) {
			t.Errorf("IsAliased(%s) = false", p)
		}
	}
}

func TestRandomProbesMostlySilent(t *testing.T) {
	w := buildTiny(t, 8)
	tm := w.Origin.Add(time.Hour)
	// Random IIDs inside real customer /64s: must not respond (the odds
	// of hitting a live random IID are ~2^-64).
	responded := 0
	n := 0
	for _, d := range w.Devices() {
		if d.SiteAt(tm).aliased {
			continue
		}
		p := d.Prefix64At(tm)
		probe := addr.FromParts(uint64(p), hash2(uint64(n), 0xabad1dea))
		if probe == d.AddressAt(tm) {
			continue
		}
		if w.Probe(probe, tm).Responded {
			responded++
		}
		n++
		if n >= 500 {
			break
		}
	}
	if responded != 0 {
		t.Errorf("%d/%d random probes in non-aliased /64s responded", responded, n)
	}
}

func TestRoutersRespond(t *testing.T) {
	w := buildTiny(t, 9)
	tm := w.Origin.Add(time.Hour)
	routers := w.Routers()
	if len(routers) == 0 {
		t.Fatal("no routers")
	}
	for _, r := range routers {
		res := w.Probe(r, tm)
		if !res.Responded || !res.Router {
			t.Fatalf("router %s did not respond: %+v", r, res)
		}
	}
	// Router IIDs must be the low-entropy memorable kind.
	for _, r := range routers {
		if r.IID().EntropyClass() != addr.LowEntropy {
			t.Errorf("router %s IID is not low entropy", r)
		}
	}
}

func TestPrefixRotationChangesDelegation(t *testing.T) {
	w := buildTiny(t, 10)
	var rotating *Site
	for _, s := range w.Sites() {
		if s.as.cfg.RotationInterval > 0 && !s.aliased && s.as2 == nil {
			rotating = s
			break
		}
	}
	if rotating == nil {
		t.Fatal("no rotating site")
	}
	interval := rotating.as.cfg.RotationInterval
	t0 := w.Origin.Add(time.Hour)
	t1 := t0.Add(interval)
	p0 := rotating.Delegated(t0, w.Origin)
	p1 := rotating.Delegated(t1, w.Origin)
	if p0 == p1 {
		t.Errorf("delegated prefix did not rotate across an epoch: %s", p0)
	}
	// Within one epoch the prefix is stable.
	if rotating.Delegated(t0.Add(time.Minute), w.Origin) != p0 {
		t.Error("prefix changed within an epoch")
	}
}

func TestSlotPermutationInvertible(t *testing.T) {
	f := func(seed, epoch uint64, idxRaw uint32, bitsRaw uint8) bool {
		bits := 4 + int(bitsRaw)%20 // 4..23
		idx := uint64(idxRaw) & (1<<bits - 1)
		slot := affinePerm(seed, epoch, idx, bits)
		return affinePermInv(seed, epoch, slot, bits) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlotPermutationIsPermutation(t *testing.T) {
	const bits = 8
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1<<bits; i++ {
		s := affinePerm(42, 7, i, bits)
		if s >= 1<<bits {
			t.Fatalf("slot %d out of range", s)
		}
		if seen[s] {
			t.Fatalf("slot %d produced twice", s)
		}
		seen[s] = true
	}
}

func TestRoamingPhonesAppearInTwoASes(t *testing.T) {
	w := buildTiny(t, 11)
	roamers := 0
	for _, d := range w.Devices() {
		if !d.Roams() {
			continue
		}
		roamers++
		seenASN := make(map[uint32]bool)
		for h := 0; h < 200; h++ {
			tm := w.Origin.Add(time.Duration(h) * 6 * time.Hour)
			if tm.After(w.End) {
				break
			}
			seenASN[d.ASNAt(tm)] = true
		}
		if len(seenASN) < 2 {
			t.Errorf("roaming device never changed AS: %v", seenASN)
		}
	}
	if roamers == 0 {
		t.Fatal("no roaming phones in tiny world")
	}
}

func TestProviderChurnMovesSites(t *testing.T) {
	w := buildTiny(t, 12)
	churned := 0
	for _, s := range w.Sites() {
		if s.as2 == nil {
			continue
		}
		churned++
		before := s.ASNAt(s.switchAt.Add(-time.Hour))
		after := s.ASNAt(s.switchAt.Add(time.Hour))
		if before == after {
			t.Errorf("site did not change ASN at switch time")
		}
		// Devices at the old address must be unreachable after the switch.
		for _, d := range s.devices {
			if d.Firewalled() || !d.ActiveAt(s.switchAt.Add(time.Hour)) || d.Roams() {
				continue
			}
			oldAddr := d.AddressAt(s.switchAt.Add(-time.Hour))
			res := w.Probe(oldAddr, s.switchAt.Add(time.Hour))
			if res.Responded && res.Device == d {
				t.Errorf("device answered at pre-switch address after provider change")
			}
		}
	}
	if churned == 0 {
		t.Skip("no churned sites at this scale/seed")
	}
}

func TestMACReuseSpansASes(t *testing.T) {
	w := buildTiny(t, 13)
	byMAC := make(map[addr.MAC][]*Device)
	for _, d := range w.Devices() {
		if m, ok := d.MAC(); ok && d.reused {
			byMAC[m] = append(byMAC[m], d)
		}
	}
	if len(byMAC) == 0 {
		t.Fatal("no reused MACs")
	}
	for m, devs := range byMAC {
		if len(devs) < 2 {
			t.Errorf("MAC %s reused by only %d devices", m, len(devs))
			continue
		}
		asns := make(map[asdb.ASN]bool)
		for _, d := range devs {
			asns[d.HomeSite().as.cfg.ASN] = true
		}
		if len(asns) < 2 {
			t.Errorf("MAC %s reuse confined to one AS", m)
		}
	}
}

func TestTraceRouteShape(t *testing.T) {
	w := buildTiny(t, 14)
	tm := w.Origin.Add(time.Hour)
	var target *Device
	for _, d := range w.Devices() {
		if !d.Firewalled() && d.ActiveAt(tm) && d.Kind != KindServer && !d.SiteAt(tm).aliased {
			target = d
			break
		}
	}
	if target == nil {
		t.Fatal("no target found")
	}
	dst := target.AddressAt(tm)
	hops := w.TraceRoute(21928, dst, tm)
	if len(hops) < 2 {
		t.Fatalf("trace too short: %+v", hops)
	}
	// TTLs strictly increasing.
	for i := 1; i < len(hops); i++ {
		if hops[i].TTL <= hops[i-1].TTL {
			t.Errorf("TTLs not increasing: %+v", hops)
		}
	}
	last := hops[len(hops)-1]
	if !last.Dest || last.Addr != dst {
		t.Errorf("responsive destination missing from trace end: %+v", last)
	}
	// Determinism.
	again := w.TraceRoute(21928, dst, tm)
	if len(again) != len(hops) {
		t.Error("trace not deterministic")
	}
	// Unrouted destination -> no trace.
	if got := w.TraceRoute(21928, addr.MustParse("3fff::1"), tm); got != nil {
		t.Errorf("unrouted trace: %+v", got)
	}
}

func TestGenerateQueriesRespectsWindows(t *testing.T) {
	w := buildTiny(t, 15)
	n := 0
	w.GenerateQueries(func(q Query) {
		n++
		if q.Time.Before(w.Origin) || q.Time.After(w.End) {
			t.Fatalf("query outside study window: %v", q.Time)
		}
		if !q.Device.ActiveAt(q.Time) {
			t.Fatalf("query from inactive device at %v", q.Time)
		}
		if q.Addr != q.Device.AddressAt(q.Time) {
			t.Fatal("query address inconsistent with device schedule")
		}
	})
	if n == 0 {
		t.Fatal("no queries generated")
	}
	if got := countQueries(w); got != n {
		t.Errorf("countQueries: got %d want %d", got, n)
	}
}

// countQueries returns the number of queries GenerateQueries emits.
func countQueries(w *World) int {
	n := 0
	w.GenerateQueries(func(Query) { n++ })
	return n
}

func TestGenerateQueriesDeterministic(t *testing.T) {
	w1 := buildTiny(t, 16)
	w2 := buildTiny(t, 16)
	var a, b []Query
	w1.GenerateQueries(func(q Query) { a = append(a, q) })
	w2.GenerateQueries(func(q Query) { b = append(b, q) })
	if len(a) != len(b) {
		t.Fatalf("query counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Time != b[i].Time || a[i].Addr != b[i].Addr {
			t.Fatalf("query %d differs", i)
		}
	}
}

func TestStrategyMixPick(t *testing.T) {
	var m StrategyMix
	m[StratEUI64] = 1
	for i := uint64(0); i < 100; i++ {
		if got := m.pick(hash2(i, 1)); got != StratEUI64 {
			t.Fatalf("pick from single-weight mix: got %v", got)
		}
	}
	var zero StrategyMix
	if got := zero.pick(1); got != StratPrivacy {
		t.Errorf("zero mix should default to privacy, got %v", got)
	}
}

func TestKindAndStrategyStrings(t *testing.T) {
	for k := DeviceKind(0); k < NumDeviceKinds; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d unnamed", k)
		}
	}
	for s := IIDStrategy(0); s < NumIIDStrategies; s++ {
		if s.String() == "unknown" {
			t.Errorf("strategy %d unnamed", s)
		}
	}
}

func TestEUI64DevicesEmitEUI64Addresses(t *testing.T) {
	w := buildTiny(t, 17)
	tm := w.Origin.Add(time.Hour)
	found := 0
	for _, d := range w.Devices() {
		if d.Strategy != StratEUI64 {
			continue
		}
		a := d.AddressAt(tm)
		if !a.IID().IsEUI64() {
			t.Fatalf("EUI-64 device address %s lacks FFFE marker", a)
		}
		m, ok := d.MAC()
		if !ok {
			t.Fatal("EUI-64 device without MAC")
		}
		got, err := addr.MACFromEUI64(a.IID())
		if err != nil || got != m {
			t.Fatalf("MAC recovery mismatch: %v vs %v", got, m)
		}
		found++
	}
	if found == 0 {
		t.Fatal("no EUI-64 devices")
	}
}

func TestDefaultInternetSane(t *testing.T) {
	ases := DefaultInternet()
	if len(ases) < 20 {
		t.Fatalf("only %d ASes", len(ases))
	}
	seen := make(map[asdb.ASN]bool)
	for _, ac := range ases {
		if seen[ac.ASN] {
			t.Fatalf("duplicate ASN %d", ac.ASN)
		}
		seen[ac.ASN] = true
		if err := validateASConfig(ac); err != nil {
			t.Errorf("AS %d invalid: %v", ac.ASN, err)
		}
	}
	// The paper's named ASes must be present.
	for _, want := range []asdb.ASN{55836, 21928, 4134, 9808, 23693, 45609, 7922, 27699, 268424} {
		if !seen[want] {
			t.Errorf("AS %d missing from default Internet", want)
		}
	}
}
