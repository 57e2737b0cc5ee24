package wigle

import (
	"maps"
	"testing"

	"hitlist6/internal/addr"
	"hitlist6/internal/simnet"
)

func TestDBAddLookup(t *testing.T) {
	db := NewDB()
	m := addr.MAC{0xc8, 0x0e, 0x14, 1, 2, 3}
	loc := Location{Lat: 51.0, Lon: 10.0}
	db.Add(m, loc)
	got, ok := db.Lookup(m)
	if !ok || got != loc {
		t.Fatalf("lookup: %+v %v", got, ok)
	}
	if _, ok := db.Lookup(addr.MAC{1, 2, 3, 4, 5, 6}); ok {
		t.Error("phantom lookup")
	}
	if db.Len() != 1 {
		t.Errorf("len: %d", db.Len())
	}
	// Re-adding updates in place without duplicating the OUI index.
	db.Add(m, Location{Lat: 1, Lon: 1})
	if db.Len() != 1 || len(db.ByOUI(m.OUI())) != 1 {
		t.Error("duplicate OUI index entry")
	}
}

func TestByOUISorted(t *testing.T) {
	db := NewDB()
	o := addr.OUI{0x38, 0x10, 0xd5}
	for _, sfx := range []uint32{0x30, 0x10, 0x20} {
		m := addr.MAC{o[0], o[1], o[2]}.WithNICSuffix(sfx)
		db.Add(m, Location{})
	}
	ms := db.ByOUI(o)
	if len(ms) != 3 {
		t.Fatalf("len: %d", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].NICSuffix() < ms[i-1].NICSuffix() {
			t.Fatal("not sorted")
		}
	}
	if got := db.ByOUI(addr.OUI{9, 9, 9}); len(got) != 0 {
		t.Errorf("unknown OUI: %v", got)
	}
}

func TestSiteLocationDeterministicAndInCountry(t *testing.T) {
	cfg := simnet.DefaultConfig(5, 0.05)
	cfg.Days = 5
	w, err := simnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range w.Sites()[:50] {
		l1 := SiteLocation(s)
		l2 := SiteLocation(s)
		if l1 != l2 {
			t.Fatal("site location not deterministic")
		}
		if c, ok := countryCentroids[s.Country()]; ok {
			if dLat := l1.Lat - c.Lat; dLat < -2.1 || dLat > 2.1 {
				t.Fatalf("lat jitter out of band: %v vs %v", l1, c)
			}
			if dLon := l1.Lon - c.Lon; dLon < -2.1 || dLon > 2.1 {
				t.Fatalf("lon jitter out of band: %v vs %v", l1, c)
			}
		}
	}
}

func TestBuildCoverage(t *testing.T) {
	cfg := simnet.DefaultConfig(6, 0.1)
	cfg.Days = 5
	w, err := simnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := Build(w, BuildConfig{Coverage: 1.0, IoTAPShare: 0, Noise: 0, Seed: 1})
	none := Build(w, BuildConfig{Coverage: 0.0, IoTAPShare: 0, Noise: 0, Seed: 1})
	if none.Len() != 0 {
		t.Errorf("zero coverage produced %d entries", none.Len())
	}
	// With full coverage, every CPE with a MAC must be represented via
	// its offset BSSID.
	want := 0
	for _, s := range w.Sites() {
		if cpe := s.CPE(); cpe != nil {
			if _, ok := cpe.MAC(); ok {
				want++
			}
		}
	}
	if want == 0 {
		t.Fatal("no CPE with MACs in world")
	}
	if full.Len() < want {
		t.Errorf("coverage 1.0: %d entries, want >= %d", full.Len(), want)
	}
	// Every CPE BSSID is findable at the vendor offset.
	for _, s := range w.Sites() {
		cpe := s.CPE()
		if cpe == nil {
			continue
		}
		m, ok := cpe.MAC()
		if !ok {
			continue
		}
		bssid := m.AddOffset(VendorOffset(m.OUI()))
		if _, ok := full.Lookup(bssid); !ok {
			t.Fatalf("CPE %s BSSID %s missing", m, bssid)
		}
	}
	// Noise inflates the database deterministically.
	noisy := Build(w, BuildConfig{Coverage: 1.0, IoTAPShare: 0, Noise: 10, Seed: 1})
	if noisy.Len() <= full.Len() {
		t.Error("noise did not add entries")
	}
	again := Build(w, BuildConfig{Coverage: 1.0, IoTAPShare: 0, Noise: 10, Seed: 1})
	if again.Len() != noisy.Len() {
		t.Error("build not deterministic")
	}
}

// TestBuildIsAFunctionOfItsSeed pins the database — every BSSID and
// coordinate, noise included — to (world, config): the noise loop draws
// from the rng per covered OUI, so visiting the OUIs in map order made
// one seed yield different databases (and §5.3 counts) run to run.
func TestBuildIsAFunctionOfItsSeed(t *testing.T) {
	cfg := simnet.DefaultConfig(10, 0.1)
	cfg.Days = 5
	w, err := simnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Build(w, DefaultBuildConfig(10))
	if want.Len() == 0 {
		t.Fatal("empty database")
	}
	for i := 1; i < 20; i++ {
		if got := Build(w, DefaultBuildConfig(10)); !maps.Equal(got.locs, want.locs) {
			t.Fatalf("build %d differs from build 0 at the same seed (%d vs %d entries)", i, got.Len(), want.Len())
		}
	}
}

// Len returns the number of geolocated BSSIDs.
func (db *DB) Len() int { return len(db.locs) }
