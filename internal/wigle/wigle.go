// Package wigle is the stand-in for public wardriving corpora (WiGLE,
// OpenWiFi, Apple/Google location APIs): a database of WiFi BSSIDs with
// geographic coordinates. The simulator populates it from the world's
// customer sites — each CPE (and occasionally an IoT device acting as an
// access point) exposes a wireless BSSID whose 24-bit suffix sits at a
// fixed vendor-specific offset from the device's wired MAC, which is the
// structural leak the Rye–Beverly geolocation technique (§5.3) exploits.
package wigle

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"sort"

	"hitlist6/internal/addr"
	"hitlist6/internal/rng"
	"hitlist6/internal/simnet"
)

// Location is a WGS-84 coordinate.
type Location struct {
	Lat, Lon float64
}

// DB is the BSSID geolocation database.
type DB struct {
	locs  map[addr.MAC]Location
	byOUI map[addr.OUI][]addr.MAC
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{
		locs:  make(map[addr.MAC]Location),
		byOUI: make(map[addr.OUI][]addr.MAC),
	}
}

// Add records a BSSID sighting.
func (db *DB) Add(bssid addr.MAC, loc Location) {
	if _, dup := db.locs[bssid]; !dup {
		db.byOUI[bssid.OUI()] = append(db.byOUI[bssid.OUI()], bssid)
	}
	db.locs[bssid] = loc
}

// Lookup returns the location of a BSSID.
func (db *DB) Lookup(bssid addr.MAC) (Location, bool) {
	l, ok := db.locs[bssid]
	return l, ok
}

// ByOUI returns every BSSID under an OUI, sorted for determinism.
func (db *DB) ByOUI(o addr.OUI) []addr.MAC {
	ms := db.byOUI[o]
	out := append([]addr.MAC(nil), ms...)
	sort.Slice(out, func(i, j int) bool { return out[i].NICSuffix() < out[j].NICSuffix() })
	return out
}

// Len returns the number of geolocated BSSIDs.
func (db *DB) Len() int { return len(db.locs) }

// VendorOffset is the deterministic wired-to-wireless MAC suffix offset a
// vendor uses within one OUI. Offsets are small and nonzero, matching the
// empirical structure (wired and wireless interfaces of one device get
// adjacent suffixes).
func VendorOffset(o addr.OUI) int32 {
	h := uint64(o[0])<<16 | uint64(o[1])<<8 | uint64(o[2])
	h = h*0x9e3779b97f4a7c15 + 0x1234
	off := int32(h>>40)%8 + 1 // 1..8
	if h&1 == 1 {
		off = -off
	}
	return off
}

// BuildConfig controls wardriving coverage.
type BuildConfig struct {
	// Coverage is the probability a given access point was ever
	// wardriven (WiGLE covers a lot of Europe, less elsewhere).
	Coverage float64
	// IoTAPShare is the probability an EUI-64 IoT device also appears as
	// an access point (e.g. speakers with setup APs).
	IoTAPShare float64
	// Noise adds this many unrelated BSSIDs per covered OUI, modelling
	// APs whose wired twin we never observe.
	Noise int
	// Seed drives the sampling.
	Seed int64
}

// DefaultBuildConfig mirrors plausible WiGLE coverage.
func DefaultBuildConfig(seed int64) BuildConfig {
	return BuildConfig{Coverage: 0.6, IoTAPShare: 0.25, Noise: 30, Seed: seed}
}

// countryCentroids maps ISO country codes to rough centroids. Unknown
// countries land in the ocean at (0, 0) offset per-site.
var countryCentroids = map[string]Location{
	"DE": {51.2, 10.4}, "US": {39.8, -98.6}, "IN": {22.9, 79.6},
	"CN": {35.0, 103.8}, "BR": {-10.8, -52.9}, "ID": {-2.2, 117.4},
	"MX": {23.9, -102.5}, "FR": {46.6, 2.4}, "LU": {49.8, 6.1},
	"JP": {36.6, 138.0}, "KR": {36.4, 127.8}, "GB": {54.1, -2.9},
	"NL": {52.2, 5.3}, "PL": {52.1, 19.4}, "ES": {40.2, -3.6},
	"SE": {62.8, 16.7}, "AU": {-25.7, 134.5}, "ZA": {-29.0, 25.1},
	"SG": {1.35, 103.8}, "TW": {23.8, 121.0}, "HK": {22.4, 114.1},
	"BG": {42.8, 25.2}, "BH": {26.0, 50.5},
}

// NearestCountry classifies a coordinate to the closest known country
// centroid (a crude reverse geocoder sufficient for country-level
// aggregation of geolocation results). Returns "??" for an empty table.
func NearestCountry(l Location) string {
	best, bestD := "??", 0.0
	first := true
	//lint:ordered a minimum under a total order (distance, then code) does not depend on visit order
	for cc, c := range countryCentroids {
		d := (l.Lat-c.Lat)*(l.Lat-c.Lat) + (l.Lon-c.Lon)*(l.Lon-c.Lon)
		if first || d < bestD || (d == bestD && cc < best) {
			best, bestD, first = cc, d, false
		}
	}
	return best
}

// SiteLocation derives a site's physical coordinate: its country centroid
// plus a deterministic per-site jitter of up to ~2 degrees.
func SiteLocation(s *simnet.Site) Location {
	c, ok := countryCentroids[s.Country()]
	if !ok {
		c = Location{0, 0}
	}
	u, v := s.JitterUV()
	return Location{
		Lat: c.Lat + (u-0.5)*4,
		Lon: c.Lon + (v-0.5)*4,
	}
}

// Build populates the wardriving database from the world: covered CPE and
// AP-acting IoT devices contribute a BSSID at the vendor offset from
// their wired MAC, located at their site; noise BSSIDs pad each covered
// OUI.
func Build(w *simnet.World, cfg BuildConfig) *DB {
	db := NewDB()
	rnd := rand.New(rng.NewSource(cfg.Seed))
	coveredOUIs := make(map[addr.OUI]bool)

	consider := func(d *simnet.Device, site *simnet.Site, prob float64) {
		mac, ok := d.MAC()
		if !ok {
			return
		}
		if rnd.Float64() >= prob {
			return
		}
		bssid := mac.AddOffset(VendorOffset(mac.OUI()))
		db.Add(bssid, SiteLocation(site))
		coveredOUIs[mac.OUI()] = true
	}

	for _, site := range w.Sites() {
		if cpe := site.CPE(); cpe != nil {
			consider(cpe, site, cfg.Coverage)
		}
		for _, d := range site.Devices() {
			if d.Kind == simnet.KindIoT {
				consider(d, site, cfg.Coverage*cfg.IoTAPShare)
			}
		}
	}

	// Noise: wardriven APs whose wired twin never queried our servers.
	// The OUIs go in sorted order: each draws from rnd, so map order here
	// would make the database differ between runs at one seed.
	ouis := slices.SortedFunc(maps.Keys(coveredOUIs), func(a, b addr.OUI) int { return bytes.Compare(a[:], b[:]) })
	for _, o := range ouis {
		for i := 0; i < cfg.Noise; i++ {
			var m addr.MAC
			m[0], m[1], m[2] = o[0], o[1], o[2]
			suffix := uint32(rnd.Int63n(1 << 24))
			m = m.WithNICSuffix(suffix)
			if _, dup := db.Lookup(m); dup {
				continue
			}
			loc := Location{Lat: rnd.Float64()*140 - 70, Lon: rnd.Float64()*360 - 180}
			db.Add(m, loc)
		}
	}
	return db
}
