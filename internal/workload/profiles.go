package workload

import (
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
	"hitlist6/internal/ingest"
	"hitlist6/internal/simnet"
)

// ---- churn ----

// churnStream builds a privacy-heavy world: almost every client runs
// RFC 4941 ephemeral IIDs regenerated every 2 hours, providers rotate
// delegations daily, and a sizable site fraction switches providers
// mid-study. The corpus this produces is dominated by observed-once
// addresses — unique-address growth far outpaces repeat sightings, so
// the collector's index growth and singleton-IID paths carry the load.
func churnStream(seed int64, size Size) (*Stream, error) {
	privacy := simnet.StrategyMix{}
	privacy[simnet.StratPrivacy] = 0.96
	privacy[simnet.StratStableRandom] = 0.03
	privacy[simnet.StratEUI64] = 0.01

	mobile := func(asn asdb.ASN, name, cc string, sites int) simnet.ASConfig {
		return simnet.ASConfig{
			ASN: asn, Name: name, Country: cc, Type: asdb.TypePhoneProvider,
			RoutedBits: 40, DelegationBits: 64,
			RotationInterval: 24 * time.Hour,
			Sites:            sites, DevicesPerSiteMin: 1, DevicesPerSiteMax: 1,
			ClientMix: privacy, CPEStrategy: simnet.StratStableRandom,
			FirewallProb: 0.3, Routers: 8, QueryRatePerDay: 4,
		}
	}
	residential := func(asn asdb.ASN, name, cc string, sites int) simnet.ASConfig {
		return simnet.ASConfig{
			ASN: asn, Name: name, Country: cc, Type: asdb.TypeISP,
			RoutedBits: 40, DelegationBits: 56,
			RotationInterval: 24 * time.Hour,
			Sites:            sites, DevicesPerSiteMin: 1, DevicesPerSiteMax: 4,
			ClientMix: privacy, CPEStrategy: simnet.StratStableRandom,
			FirewallProb: 0.4, Routers: 8, MobileFraction: 0.4,
			ProviderChurn: 0.15, QueryRatePerDay: 3,
		}
	}

	cfg := simnet.Config{
		Seed:  seed,
		Start: time.Date(2022, 1, 25, 0, 0, 0, 0, time.UTC),
		Days:  size.Days,
		Scale: size.Scale,
		ASes: []simnet.ASConfig{
			mobile(70101, "Churn Mobile A", "IN", 900),
			mobile(70102, "Churn Mobile B", "US", 700),
			mobile(70103, "Churn Mobile C", "CN", 600),
			residential(70104, "Churn ISP A", "US", 400),
			residential(70105, "Churn ISP B", "BR", 300),
			residential(70106, "Churn ISP C", "BR", 250),
		},
		SyntheticVendors: 20,
		IIDLifetime:      2 * time.Hour,
		RoamInterval:     4 * time.Hour,
	}
	return materialize(cfg, 6*time.Hour)
}

// ---- eui64-dense ----

// eui64DenseStream saturates the world with EUI-64 addressing: IoT-
// heavy client mixes, EUI-64 CPE fleets with a forced vendor, and
// extra MAC-reuse groups. Tracked IIDs and the shared span slab carry
// the corpus here instead of sitting at the paper's ~10% margins, and
// cross-AS MAC reuse keeps the tracking analyses honest under volume.
func eui64DenseStream(seed int64, size Size) (*Stream, error) {
	dense := simnet.StrategyMix{}
	dense[simnet.StratEUI64] = 0.80
	dense[simnet.StratPrivacy] = 0.10
	dense[simnet.StratStableRandom] = 0.06
	dense[simnet.StratDHCPCounter] = 0.04

	residential := func(asn asdb.ASN, name, cc string, sites int) simnet.ASConfig {
		return simnet.ASConfig{
			ASN: asn, Name: name, Country: cc, Type: asdb.TypeISP,
			RoutedBits: 40, DelegationBits: 56,
			RotationInterval: 7 * 24 * time.Hour,
			Sites:            sites, DevicesPerSiteMin: 2, DevicesPerSiteMax: 6,
			ClientMix: dense, CPEStrategy: simnet.StratEUI64, CPEVendor: "AVM GmbH",
			FirewallProb: 0.3, Routers: 8, QueryRatePerDay: 3,
		}
	}
	mobile := func(asn asdb.ASN, name, cc string, sites int) simnet.ASConfig {
		m := residential(asn, name, cc, sites)
		m.Type = asdb.TypePhoneProvider
		m.DelegationBits = 64
		m.DevicesPerSiteMin, m.DevicesPerSiteMax = 1, 1
		m.CPEStrategy = simnet.StratStableRandom
		m.CPEVendor = ""
		return m
	}

	cfg := simnet.Config{
		Seed:  seed,
		Start: time.Date(2022, 1, 25, 0, 0, 0, 0, time.UTC),
		Days:  size.Days,
		Scale: size.Scale,
		ASes: []simnet.ASConfig{
			residential(70201, "Dense ISP DE", "DE", 500),
			residential(70202, "Dense ISP FR", "FR", 400),
			residential(70203, "Dense ISP MX", "MX", 350),
			mobile(70204, "Dense Mobile IN", "IN", 600),
			mobile(70205, "Dense Mobile ID", "ID", 450),
		},
		SyntheticVendors: 40,
		MACReuseGroups:   6,
		MACReuseSize:     40,
		IIDLifetime:      24 * time.Hour,
		RoamInterval:     8 * time.Hour,
	}
	return materialize(cfg, 6*time.Hour)
}

// ---- outage-storm ----

// StormBin is the outage-storm scenario's detection bin width; the
// engineered windows below are sized and placed relative to it.
const StormBin = 6 * time.Hour

// StormWindow is one engineered outage window and its expected
// detection outcome, the ground truth the matrix report and the
// boundary tests assert against.
type StormWindow struct {
	ASN asdb.ASN
	// From/To bound the window (To lands exactly on a bin edge for the
	// boundary-material windows; see EndsOnBinEdge).
	From, To time.Time
	// ShouldTrip is whether outage.Detect at StormBin with default
	// thresholds (MinBins 2) must report an event overlapping the
	// window: multi-bin full-dark windows trip, a single dark bin or a
	// partially-dark trailing bin must not.
	ShouldTrip bool
	// EndsOnBinEdge marks windows whose end lands exactly on a StormBin
	// boundary — the Tail edge cases.
	EndsOnBinEdge bool
}

// stormDays is the minimum study length the engineered windows need.
const stormDays = 8

// outageStormConfig builds the storm world and its ground truth. Query
// rates are high enough that every AS's per-bin median sits far above
// detection thresholds — the only dark bins are the engineered ones.
func outageStormConfig(seed int64, size Size) (simnet.Config, []StormWindow) {
	days := size.Days
	if days < stormDays {
		days = stormDays
	}
	start := time.Date(2022, 1, 25, 0, 0, 0, 0, time.UTC)
	stormAS := func(asn asdb.ASN, name string, outage simnet.OutageWindow) simnet.ASConfig {
		return simnet.ASConfig{
			ASN: asn, Name: name, Country: "US", Type: asdb.TypeISP,
			RoutedBits: 40, DelegationBits: 56,
			Sites: 400, DevicesPerSiteMin: 2, DevicesPerSiteMax: 4,
			ClientMix:    stormMix(),
			CPEStrategy:  simnet.StratStableRandom,
			FirewallProb: 0.2, Routers: 8,
			QueryRatePerDay: 40,
			Outages:         []simnet.OutageWindow{outage},
		}
	}
	window := func(asn asdb.ASN, startDay, hours int, trips, edge bool) StormWindow {
		from := start.AddDate(0, 0, startDay)
		return StormWindow{
			ASN: asn, From: from, To: from.Add(time.Duration(hours) * time.Hour),
			ShouldTrip: trips, EndsOnBinEdge: edge,
		}
	}
	cfg := simnet.Config{
		Seed:  seed,
		Start: start,
		Days:  days,
		Scale: size.Scale,
		ASes: []simnet.ASConfig{
			// A day-long, bin-aligned blackout: four full dark bins, the
			// unambiguous trip.
			stormAS(70301, "Storm Aligned", simnet.OutageWindow{StartDay: 2, Hours: 24}),
			// Exactly one bin dark: below MinBins, must NOT trip.
			stormAS(70302, "Storm Single Bin", simnet.OutageWindow{StartDay: 3, Hours: 6}),
			// Two dark bins ending exactly on a bin edge: trips, and the
			// end boundary is the Tail edge case.
			stormAS(70303, "Storm Edge End", simnet.OutageWindow{StartDay: 4, Hours: 12}),
			// One full dark bin plus half of the next: the half-dark bin
			// keeps ~50% of its volume, so the dark run stays at one bin
			// and must NOT trip.
			stormAS(70304, "Storm Offset", simnet.OutageWindow{StartDay: 5, Hours: 9}),
			// Dark through the final study day: the dark run touches the
			// series tail, where Complete excludes the trailing partial
			// bin.
			stormAS(70305, "Storm Tail", simnet.OutageWindow{StartDay: days - 1, Hours: 24}),
			// A quiet control AS with no engineered outage.
			stormAS(70306, "Storm Control", simnet.OutageWindow{}),
		},
		SyntheticVendors: 10,
		IIDLifetime:      24 * time.Hour,
		RoamInterval:     8 * time.Hour,
	}
	// The zero OutageWindow on the control AS is a 0-hour no-op; drop it
	// so downAt never evaluates an empty span.
	cfg.ASes[5].Outages = nil

	windows := []StormWindow{
		window(70301, 2, 24, true, true),
		window(70302, 3, 6, false, true),
		window(70303, 4, 12, true, true),
		window(70304, 5, 9, false, false),
		window(70305, days-1, 24, true, true),
	}
	return cfg, windows
}

func stormMix() simnet.StrategyMix {
	var m simnet.StrategyMix
	m[simnet.StratPrivacy] = 0.5
	m[simnet.StratStableRandom] = 0.3
	m[simnet.StratEUI64] = 0.1
	m[simnet.StratDHCPCounter] = 0.1
	return m
}

// OutageStormSpec exposes the storm scenario's world config and ground
// truth for the boundary tests (internal/outage) and the matrix report.
//
//lint:api the storm's ground truth, which the outage and matrix tests score detection against
func OutageStormSpec(seed int64, size Size) (simnet.Config, []StormWindow) {
	return outageStormConfig(seed, size)
}

func outageStormStream(seed int64, size Size) (*Stream, error) {
	cfg, _ := outageStormConfig(seed, size)
	return materialize(cfg, StormBin)
}

// ---- collision ----

// collisionBits is how many low bits of addr.Hash64 every cluster
// address shares. The collector's open-addressing tables index by
// Hash64 & (slots-1), so a shared 14-bit residue puts the whole cluster
// in one home slot for every table up to 2^14 slots: worst-case probe
// runs.
const collisionBits = 14

// splitmix advances the generator state and returns the next value:
// the seeded counter PRNG behind the synthetic profiles (deliberately
// not math/rand — the stream is part of the scenario's identity and
// must never drift with the standard library).
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// collisionStream fabricates the adversarial cluster: addresses mined
// (deterministically, by counter scan) to share the low collisionBits
// of their hash, plus a small uniform background population that probes
// like any other addresses do. Timestamps walk the window at fixed
// stride; every address is sighted three times so records are not all
// singletons.
func collisionStream(seed int64, size Size) (*Stream, error) {
	cluster := int(50000 * size.Scale)
	if cluster < 256 {
		cluster = 256
	}
	background := cluster / 4

	state := uint64(seed) * 0x9e3779b97f4a7c15
	target := splitmix(&state) & (1<<collisionBits - 1)

	addrs := make([]addr.Addr, 0, cluster+background)
	// The cluster: scan a seeded counter, keep addresses whose hash
	// residue matches. ~2^collisionBits candidates per accept; the whole
	// mine is a few tens of millions of hashes at matrix size.
	base := uint64(0x2ade<<48) | (splitmix(&state) & 0xffff << 32)
	for c := uint64(0); len(addrs) < cluster; c++ {
		// 64 /48s so prefix-set paths see structure too.
		hi := base | (c&0x3f)<<16
		a := addr.FromParts(hi, splitmix(&state))
		if a.Hash64()&(1<<collisionBits-1) == target {
			addrs = append(addrs, a)
		}
	}
	// The background: uniform addresses, no residue constraint.
	for i := 0; i < background; i++ {
		hi := uint64(0x2bad<<48) | splitmix(&state)&0xffff_ffff
		addrs = append(addrs, addr.FromParts(hi, splitmix(&state)))
	}

	origin := time.Date(2022, 1, 25, 0, 0, 0, 0, time.UTC)
	end := origin.AddDate(0, 0, size.Days)
	window := end.Unix() - origin.Unix()

	const rounds = 3
	events := make([]ingest.Event, 0, len(addrs)*rounds)
	n := int64(len(addrs) * rounds)
	i := int64(0)
	for r := 0; r < rounds; r++ {
		for _, a := range addrs {
			events = append(events, ingest.Event{
				Addr:   a,
				Time:   origin.Unix() + i*window/n,
				Server: int32(i % NumVantages),
			})
			i++
		}
	}
	return &Stream{
		Events: events,
		Origin: origin,
		End:    end,
		Bin:    6 * time.Hour,
		// Deliberately nil: the cluster is unrouted, so the outage stage
		// sees an empty series — the scenario stresses storage, not
		// attribution.
		ASDB: nil,
	}, nil
}

// ---- cold-replay ----

// coldReplayStream doubles a paper-shaped world: the full query stream,
// then the same queries shifted into a second window of equal length
// (rotated across vantages so server attribution sees fresh spreads).
// The second pass adds no new addresses — every event is a re-sighting
// — which is exactly the regime the delta-chain checkpoints and the
// tiered corpus were built for: dirtied blocks stay a fraction of the
// corpus, and cold reads walk records that almost all carry multi-
// sighting state.
func coldReplayStream(seed int64, size Size) (*Stream, error) {
	cfg := simnet.DefaultConfig(seed, size.Scale)
	cfg.Days = size.Days
	st, err := materialize(cfg, 6*time.Hour)
	if err != nil {
		return nil, err
	}
	shift := st.End.Unix() - st.Origin.Unix()
	replay := make([]ingest.Event, len(st.Events))
	for i, ev := range st.Events {
		ev.Time += shift
		ev.Server = int32((int(ev.Server) + 13) % NumVantages)
		replay[i] = ev
	}
	st.Events = append(st.Events, replay...)
	st.End = st.End.Add(time.Duration(shift) * time.Second)
	return st, nil
}

// ---- backpressure ----

// backpressureStream is a dense paper-shaped world whose matrix cells
// run at tiny queue depths (see the profile's RunHints): replayed at
// line rate the producers outrun the drain, exercising blocking
// admission on the determinism leg and load shedding on the drop leg.
// The burstiness is in the replay, not the content — the stream itself
// stays deterministic so the blocking cells can assert byte-identical
// corpora.
func backpressureStream(seed int64, size Size) (*Stream, error) {
	cfg := simnet.DefaultConfig(seed, size.Scale)
	cfg.Days = size.Days
	for i := range cfg.ASes {
		// Double the per-device query rate: more events over the same
		// address population, so admission pressure comes from volume
		// rather than corpus growth.
		cfg.ASes[i].QueryRatePerDay *= 2
	}
	return materialize(cfg, 6*time.Hour)
}
