package geoloc

import (
	"testing"

	"hitlist6/internal/addr"
	"hitlist6/internal/simnet"
	"hitlist6/internal/wigle"
)

func TestInferOffsetsSynthetic(t *testing.T) {
	db := wigle.NewDB()
	o := addr.OUI{0xc8, 0x0e, 0x14} // AVM
	trueOffset := int32(3)
	var wired []addr.MAC
	// 20 devices: wired MAC m, BSSID m+3 in the database.
	for i := 0; i < 20; i++ {
		m := addr.MAC{o[0], o[1], o[2], 0, byte(i), 0x10}
		wired = append(wired, m)
		db.Add(m.AddOffset(trueOffset), wigle.Location{Lat: 51, Lon: 10})
	}
	// Noise BSSIDs far away in suffix space.
	for i := 0; i < 50; i++ {
		m := addr.MAC{o[0], o[1], o[2], 0x7f, byte(i), 0x99}
		db.Add(m, wigle.Location{Lat: 0, Lon: 0})
	}
	offs := InferOffsets(wired, db, 5)
	if len(offs) != 1 {
		t.Fatalf("inferred %d OUIs, want 1: %+v", len(offs), offs)
	}
	if offs[0].OUI != o || offs[0].Offset != trueOffset {
		t.Fatalf("inferred %+v, want offset %d", offs[0], trueOffset)
	}
	if offs[0].Matches < 20 {
		t.Errorf("matches: %d", offs[0].Matches)
	}
}

func TestInferOffsetsMinPairs(t *testing.T) {
	db := wigle.NewDB()
	o := addr.OUI{0x38, 0x10, 0xd5}
	m := addr.MAC{o[0], o[1], o[2], 1, 2, 3}
	db.Add(m.AddOffset(1), wigle.Location{})
	// One pair, threshold 5: no inference.
	if got := InferOffsets([]addr.MAC{m}, db, 5); len(got) != 0 {
		t.Errorf("under-threshold inference: %+v", got)
	}
	// Threshold 1: inferred.
	if got := InferOffsets([]addr.MAC{m}, db, 1); len(got) != 1 {
		t.Errorf("threshold-1 inference missing: %+v", got)
	}
}

func TestApply(t *testing.T) {
	db := wigle.NewDB()
	o := addr.OUI{0xc8, 0x0e, 0x14}
	loc := wigle.Location{Lat: 50.1, Lon: 8.7}
	m := addr.MAC{o[0], o[1], o[2], 9, 9, 9}
	db.Add(m.AddOffset(2), loc)
	offs := []OffsetCandidate{{OUI: o, Offset: 2, Matches: 100}}
	got := Apply([]addr.MAC{m, m}, offs, db) // duplicate wired MAC deduped
	if len(got) != 1 {
		t.Fatalf("linked %d", len(got))
	}
	if got[0].Location != loc {
		t.Errorf("location: %+v", got[0].Location)
	}
	// A MAC under an OUI without an inferred offset stays unlocated.
	other := addr.MAC{0x00, 0x3e, 0xe1, 1, 1, 1}
	if got := Apply([]addr.MAC{other}, offs, db); len(got) != 0 {
		t.Errorf("unexpected linkage: %+v", got)
	}
}

// TestEndToEndGeolocation runs the full §5.3 pipeline against a simulated
// world: collect EUI-64 CPE MACs, build the wardriving DB, infer offsets,
// geolocate, and validate against the world's ground-truth site
// positions.
func TestEndToEndGeolocation(t *testing.T) {
	cfg := simnet.DefaultConfig(61, 0.25)
	cfg.Days = 10
	w, err := simnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wdb := wigle.Build(w, wigle.DefaultBuildConfig(3))

	// Wired MACs as the paper gets them: from EUI-64 IIDs of observed
	// addresses. Here, straight from EUI-64 CPE devices (every CPE
	// queries NTP, so the corpus would contain them).
	var wired []addr.MAC
	truth := make(map[addr.MAC]wigle.Location)
	for _, s := range w.Sites() {
		cpe := s.CPE()
		if cpe == nil || cpe.Strategy != simnet.StratEUI64 {
			continue
		}
		if m, ok := cpe.MAC(); ok {
			wired = append(wired, m)
			truth[m] = wigle.SiteLocation(s)
		}
	}
	if len(wired) < 10 {
		t.Fatalf("only %d EUI-64 CPE", len(wired))
	}

	// The paper requires 500 wired-to-BSSID pairs per OUI; scale the
	// threshold down for the test-sized corpus.
	offs := InferOffsets(wired, wdb, 2)
	if len(offs) == 0 {
		t.Fatal("no offsets inferred")
	}
	// Every inferred offset must equal the vendor's true offset.
	for _, c := range offs {
		if want := wigle.VendorOffset(c.OUI); c.Offset != want {
			t.Errorf("OUI %s: inferred %d want %d (matches=%d)",
				c.OUI, c.Offset, want, c.Matches)
		}
	}

	located := Apply(wired, offs, wdb)
	if len(located) == 0 {
		t.Fatal("nothing geolocated")
	}
	correct := 0
	for _, g := range located {
		if want, ok := truth[g.Wired]; ok && want == g.Location {
			correct++
		}
	}
	// The overwhelming majority of linkages must hit the true site
	// location (noise BSSIDs occasionally collide).
	if float64(correct) < 0.9*float64(len(located)) {
		t.Errorf("only %d/%d geolocations correct", correct, len(located))
	}
	t.Logf("geolocated %d/%d EUI-64 CPE (%d correct)", len(located), len(wired), correct)
}

func TestCountryCount(t *testing.T) {
	res := []Geolocated{
		{Location: wigle.Location{Lat: 51, Lon: 10}},
		{Location: wigle.Location{Lat: 50, Lon: 9}},
		{Location: wigle.Location{Lat: 40, Lon: -100}},
	}
	classify := func(l wigle.Location) string {
		if l.Lon > 0 {
			return "DE"
		}
		return "US"
	}
	got := CountryCount(res, classify)
	if got["DE"] != 2 || got["US"] != 1 {
		t.Errorf("counts: %v", got)
	}
}

func TestVendorOffsetProperties(t *testing.T) {
	seen := make(map[int32]bool)
	for i := 0; i < 64; i++ {
		o := addr.OUI{byte(i), 0x20, 0x30}
		off := wigle.VendorOffset(o)
		if off == 0 || off > 8 || off < -8 {
			t.Fatalf("offset %d out of band", off)
		}
		// Determinism.
		if wigle.VendorOffset(o) != off {
			t.Fatal("offset not deterministic")
		}
		seen[off] = true
	}
	if len(seen) < 4 {
		t.Errorf("offsets not diverse: %v", seen)
	}
}
