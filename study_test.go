package hitlist6

import (
	"strings"
	"testing"

	"hitlist6/internal/addr"
	"hitlist6/internal/tracking"
)

// testConfig is a fast, small study for integration tests.
func testConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		Scale:         0.05,
		Days:          45,
		SliceDay:      30,
		HitlistRounds: 2,
		BackscanDays:  2,
	}
}

func runStudy(t testing.TB, seed int64) *Study {
	t.Helper()
	s, err := NewStudy(testConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStudyValidation(t *testing.T) {
	cfg := testConfig(1)
	cfg.Days = 0
	if _, err := NewStudy(cfg); err == nil {
		t.Error("Days=0 should fail")
	}
	// Out-of-range slice day is clamped, not an error.
	cfg = testConfig(1)
	cfg.SliceDay = 999
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Config.SliceDay != cfg.Days/2 {
		t.Errorf("slice day clamp: %d", s.Config.SliceDay)
	}
}

func TestExperimentsRequireRun(t *testing.T) {
	s, err := NewStudy(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Table1(); err == nil {
		t.Error("Table1 before Run should fail")
	}
	if _, err := s.Figure2a(); err == nil {
		t.Error("Figure2a before Run should fail")
	}
	if _, err := s.Tracking(); err == nil {
		t.Error("Tracking before Run should fail")
	}
	if _, err := s.Report(); err == nil {
		t.Error("Report before Run should fail")
	}
	if _, err := s.ReleaseNTP(); err == nil {
		t.Error("ReleaseNTP before Run should fail")
	}
}

// TestStudyShapeMatchesPaper is the headline integration test: the
// qualitative relationships the paper reports must hold in the
// reproduction.
func TestStudyShapeMatchesPaper(t *testing.T) {
	s := runStudy(t, 3)

	t1, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	// The NTP corpus dwarfs both active datasets (paper: 370x and 681x;
	// we only require a clear gap).
	if t1.NTP.Addrs < 5*t1.Hitlist.Addrs {
		t.Errorf("NTP (%d) should dwarf Hitlist (%d)", t1.NTP.Addrs, t1.Hitlist.Addrs)
	}
	if t1.NTP.Addrs < 5*t1.CAIDA.Addrs {
		t.Errorf("NTP (%d) should dwarf CAIDA (%d)", t1.NTP.Addrs, t1.CAIDA.Addrs)
	}
	// The overlaps are tiny relative to the NTP corpus (paper: 1.3%,
	// 0.02%).
	if frac := float64(t1.Hitlist.CommonAddrs) / float64(t1.NTP.Addrs); frac > 0.10 {
		t.Errorf("NTP∩Hitlist overlap too large: %.3f", frac)
	}
	// Address density per /48: NTP highest, CAIDA ~1 (paper: 1098 / 50 / 1).
	if t1.NTP.AvgPer48 <= t1.CAIDA.AvgPer48 {
		t.Errorf("density ordering: NTP %.1f vs CAIDA %.1f", t1.NTP.AvgPer48, t1.CAIDA.AvgPer48)
	}
	if t1.CAIDA.AvgPer48 > 3 {
		t.Errorf("CAIDA density should be ~1, got %.1f", t1.CAIDA.AvgPer48)
	}

	// Figure 1 ordering: NTP median entropy > Hitlist > CAIDA (~0).
	f1, err := s.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if !(f1.NTP.Median() > f1.Hitlist.Median()) {
		t.Errorf("entropy: NTP %.3f should exceed Hitlist %.3f",
			f1.NTP.Median(), f1.Hitlist.Median())
	}
	if f1.CAIDA.Median() > 0.3 {
		t.Errorf("CAIDA median entropy should be near zero, got %.3f", f1.CAIDA.Median())
	}
	if f1.NTP.Median() < 0.6 {
		t.Errorf("NTP median entropy should be high, got %.3f", f1.NTP.Median())
	}

	// Figure 2a: most addresses observed once; long tail exists.
	f2a, err := s.Figure2a()
	if err != nil {
		t.Fatal(err)
	}
	if f2a.ObservedOnce < 0.3 {
		t.Errorf("observed-once fraction %.2f implausibly low", f2a.ObservedOnce)
	}
	if f2a.WeekOrLonger <= 0 {
		t.Error("no week-long addresses at all")
	}
	if f2a.WeekOrLonger > 0.5 {
		t.Errorf("week+ fraction %.2f implausibly high", f2a.WeekOrLonger)
	}

	// Figure 2b: low-entropy IIDs persist longer than high-entropy ones.
	f2b, err := s.Figure2b()
	if err != nil {
		t.Fatal(err)
	}
	if low, high := f2b.WeekOrLonger[addr.LowEntropy], f2b.WeekOrLonger[addr.HighEntropy]; low <= high {
		t.Errorf("low-entropy IIDs should persist more: low %.3f vs high %.3f", low, high)
	}
}

func TestBackscanShape(t *testing.T) {
	s := runStudy(t, 4)
	bs, err := s.Backscan()
	if err != nil {
		t.Fatal(err)
	}
	if bs.ClientsProbed == 0 {
		t.Fatal("no clients probed")
	}
	// Paper: ~2/3 respond. Accept a broad band.
	if r := bs.ClientResponseRate(); r < 0.35 || r > 0.95 {
		t.Errorf("client response rate %.2f out of band", r)
	}
	// Paper: 3.5% random responses.
	if r := bs.RandomResponseRate(); r > 0.25 {
		t.Errorf("random response rate %.2f out of band", r)
	}
	hit, miss, random := Figure3(bs)
	if len(hit) == 0 || len(miss) == 0 {
		t.Fatalf("empty hit/miss series: %d/%d", len(hit), len(miss))
	}
	_ = random
}

func TestTrackingShape(t *testing.T) {
	s := runStudy(t, 5)
	tr, err := s.Tracking()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.MACs) == 0 {
		t.Fatal("no EUI-64 MACs observed")
	}
	// The unlisted share dominates (paper: 73.9%).
	if tr.UnlistedShare() < 0.4 {
		t.Errorf("unlisted share %.2f too low", tr.UnlistedShare())
	}
	// All five classes plus NotTrackable must be representable; at least
	// static and one mobility class should be populated.
	if tr.ClassCounts[tracking.MostlyStatic] == 0 {
		t.Error("no mostly-static MACs")
	}
	if tr.ClassCounts[tracking.UserMovement]+tr.ClassCounts[tracking.PrefixReassignment] == 0 {
		t.Error("no renumbering/movement MACs")
	}
	// Table 2's top row must be Unlisted.
	rows := tr.Table2()
	if len(rows) == 0 || rows[0].Manufacturer != "Unlisted" {
		t.Errorf("Table 2 top row: %+v", rows)
	}
}

func TestGeolocationShape(t *testing.T) {
	// Geolocation needs a larger EUI-64 CPE population than the other
	// shape tests: only pool-using CPE ever enter the passive corpus.
	cfg := testConfig(6)
	cfg.Scale = 0.2
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CollectPassive(); err != nil {
		t.Fatal(err)
	}
	g, err := s.Geolocation(2)
	if err != nil {
		t.Fatal(err)
	}
	if g.WiredMACs == 0 {
		t.Fatal("no wired MACs")
	}
	if len(g.Offsets) == 0 {
		t.Fatal("no offsets inferred")
	}
	if len(g.Located) == 0 {
		t.Fatal("nothing geolocated")
	}
	// Germany should lead (AVM CPE dominance, paper: 75%).
	top, topN := "", 0
	for cc, n := range g.Countries {
		if n > topN {
			top, topN = cc, n
		}
	}
	if top != "DE" {
		t.Errorf("top geolocated country %s (want DE): %v", top, g.Countries)
	}
}

func TestReportRendersAllSections(t *testing.T) {
	s := runStudy(t, 7)
	out, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table 1", "HyperLogLog", "Figure 1", "Figure 2a", "Figure 2b",
		"Section 4.2", "Figure 3", "Section 4.3", "Figure 4a", "Figure 4b",
		"Figure 5", "Section 5.1", "Table 2", "Section 5.2", "Figure 7",
		"Section 5.3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing section %q", want)
		}
	}
}

func TestReleaseNTP(t *testing.T) {
	s := runStudy(t, 8)
	rel, err := s.ReleaseNTP()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rel, "/48") {
		t.Error("release not /48 formatted")
	}
	// No full /64s or IIDs may leak: every non-comment line ends in /48.
	for _, line := range strings.Split(rel, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasSuffix(line, "/48") {
			t.Fatalf("leaky release line: %q", line)
		}
	}
}

func TestStudyDeterminism(t *testing.T) {
	a := runStudy(t, 10)
	b := runStudy(t, 10)
	if a.NTP.Len() != b.NTP.Len() ||
		a.Hitlist.Dataset.Len() != b.Hitlist.Dataset.Len() ||
		a.CAIDA.Len() != b.CAIDA.Len() {
		t.Error("study not deterministic across runs")
	}
}
