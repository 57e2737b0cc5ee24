package tracking

import (
	"strings"
	"testing"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
	"hitlist6/internal/collector"
	"hitlist6/internal/geodb"
	"hitlist6/internal/oui"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		ases, countries, transitions int
		want                         Class
	}{
		{1, 1, 0, NotTrackable},
		{1, 1, 2, MostlyStatic},
		{1, 1, 10, MostlyStatic}, // threshold is "more than 10"
		{1, 1, 11, PrefixReassignment},
		{2, 1, 3, ProviderChange},
		{2, 1, 50, UserMovement},
		{5, 4, 80, MACReuse},
		{3, 2, 5, MACReuse}, // many countries dominates
	}
	for _, c := range cases {
		if got := Classify(c.ases, c.countries, c.transitions); got != c.want {
			t.Errorf("Classify(%d,%d,%d): got %v want %v",
				c.ases, c.countries, c.transitions, got, c.want)
		}
	}
}

func TestClassStrings(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if c.String() == "Unknown" || c.String() == "" {
			t.Errorf("class %d unnamed", c)
		}
	}
}

// fixture builds a small corpus with known tracking patterns.
func fixture(t *testing.T) (*collector.Collector, *asdb.DB, *geodb.DB, *oui.Registry) {
	t.Helper()
	db := asdb.NewDB()
	add := func(asn asdb.ASN, name, cc, pfx string) {
		if err := db.AddAS(asdb.AS{
			ASN: asn, Name: name, Country: cc,
			Prefixes: []addr.Prefix{addr.MustParsePrefix(pfx)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	add(100, "Home ISP", "DE", "2400:100::/32")
	add(200, "Cell Carrier", "DE", "2400:200::/32")
	add(300, "Foreign ISP", "BR", "2400:300::/32")
	geo := geodb.FromASDB(db)
	reg := oui.NewRegistry(0)
	return collector.New(), db, geo, reg
}

var base = time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)

// observeEUI64 plants sightings of mac in the given /64 bases at daily
// steps starting at day.
func observeEUI64(c *collector.Collector, mac addr.MAC, p64Hi uint64, day int) {
	iid := addr.EUI64FromMAC(mac)
	a := addr.FromParts(p64Hi, uint64(iid))
	c.Observe(a, base.AddDate(0, 0, day), 0)
}

func TestAnalyzeClasses(t *testing.T) {
	c, db, geo, reg := fixture(t)

	// Static host: one /64 throughout.
	static := addr.MAC{0x00, 0x3e, 0xe1, 1, 1, 1}
	for d := 0; d < 60; d += 10 {
		observeEUI64(c, static, 0x2400_0100_0000_0001, d)
	}

	// Prefix reassignment: 15 /64s in one AS (AS100, DE).
	renum := addr.MAC{0x00, 0x3e, 0xe1, 2, 2, 2}
	for i := 0; i < 15; i++ {
		observeEUI64(c, renum, 0x2400_0100_0000_0100+uint64(i), i)
	}

	// Provider change: two ASes same country, few /64s.
	switcher := addr.MAC{0x00, 0x3e, 0xe1, 3, 3, 3}
	observeEUI64(c, switcher, 0x2400_0100_0000_0200, 0)
	observeEUI64(c, switcher, 0x2400_0200_0000_0200, 30)

	// User movement: two ASes same country, many transitions.
	mover := addr.MAC{0x00, 0x3e, 0xe1, 4, 4, 4}
	for i := 0; i < 20; i++ {
		hi := uint64(0x2400_0100_0000_0300)
		if i%2 == 1 {
			hi = 0x2400_0200_0000_0300
		}
		observeEUI64(c, mover, hi+uint64(i), i)
	}

	// MAC reuse: two countries.
	reused := addr.MAC{0xf0, 0x02, 0x20, 5, 5, 5}
	observeEUI64(c, reused, 0x2400_0100_0000_0400, 0)
	observeEUI64(c, reused, 0x2400_0300_0000_0400, 1)

	// A non-EUI-64 high-entropy client for contrast.
	c.Observe(addr.MustParse("2400:100::1b2c:3d4e:5f60:7182"), base, 0)

	a := AnalyzeWorkers(c.IIDTable(), db, geo, reg, 1)

	if a.EUI64Addresses == 0 {
		t.Fatal("no EUI-64 addresses counted")
	}
	if len(a.MACs) != 5 {
		t.Fatalf("MACs: %d want 5", len(a.MACs))
	}
	if a.Trackable != 4 { // all but the static host
		t.Errorf("trackable: %d want 4", a.Trackable)
	}
	wantClass := map[addr.MAC]Class{
		static:   NotTrackable,
		renum:    PrefixReassignment,
		switcher: ProviderChange,
		mover:    UserMovement,
		reused:   MACReuse,
	}
	for _, m := range a.MACs {
		if want := wantClass[m.MAC]; m.Class != want {
			t.Errorf("MAC %s: class %v want %v (ases=%d cc=%d tr=%d)",
				m.MAC, m.Class, want, len(m.ASNs), len(m.Countries), m.Transitions)
		}
	}
	// Class shares sum to 1 over trackable classes.
	var sum float64
	for cl := MostlyStatic; cl < NumClasses; cl++ {
		sum += a.ClassShare(cl)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("class shares sum: %v", sum)
	}
	if a.ClassShare(NotTrackable) != 0 {
		t.Error("NotTrackable share should be excluded")
	}
}

func TestTable2AndUnlisted(t *testing.T) {
	c, db, geo, reg := fixture(t)
	// Two Apple MACs, three phantom MACs.
	observeEUI64(c, addr.MAC{0x00, 0x3e, 0xe1, 9, 9, 1}, 0x2400_0100_0000_0001, 0)
	observeEUI64(c, addr.MAC{0x00, 0x3e, 0xe1, 9, 9, 2}, 0x2400_0100_0000_0002, 0)
	observeEUI64(c, addr.MAC{0xf0, 0x02, 0x20, 9, 9, 3}, 0x2400_0100_0000_0003, 0)
	observeEUI64(c, addr.MAC{0xf0, 0x02, 0x20, 9, 9, 4}, 0x2400_0100_0000_0004, 0)
	observeEUI64(c, addr.MAC{0xf0, 0x02, 0x20, 9, 9, 5}, 0x2400_0100_0000_0005, 0)

	a := AnalyzeWorkers(c.IIDTable(), db, geo, reg, 1)
	rows := a.Table2()
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0].Manufacturer != oui.Unlisted || rows[0].Count != 3 {
		t.Errorf("top row: %+v", rows[0])
	}
	if rows[1].Manufacturer != "Apple, Inc." || rows[1].Count != 2 {
		t.Errorf("second row: %+v", rows[1])
	}
	if got := a.UnlistedShare(); got != 0.6 {
		t.Errorf("unlisted share: %v", got)
	}
}

func TestTimelineAndExemplar(t *testing.T) {
	c, db, geo, reg := fixture(t)
	m := addr.MAC{0x00, 0x3e, 0xe1, 7, 7, 7}
	// Two /48s in different ASes, in time order.
	observeEUI64(c, m, 0x2400_0100_0000_0001, 0)
	observeEUI64(c, m, 0x2400_0100_0000_0001, 5)
	observeEUI64(c, m, 0x2400_0200_0000_0001, 40)

	a := AnalyzeWorkers(c.IIDTable(), db, geo, reg, 1)
	ex := a.Exemplar(ProviderChange)
	if ex == nil || ex.MAC != m {
		t.Fatalf("exemplar: %+v", ex)
	}
	tl := Timeline(ex, db)
	if len(tl) != 2 {
		t.Fatalf("timeline entries: %d", len(tl))
	}
	if !tl[0].First.Before(tl[1].First) {
		t.Error("timeline not ordered")
	}
	if tl[0].ASName != "Home ISP" || tl[1].ASName != "Cell Carrier" {
		t.Errorf("AS attribution: %q, %q", tl[0].ASName, tl[1].ASName)
	}
	out := RenderTimeline(ex, db)
	for _, want := range []string{"00:3e:e1:07:07:07", "Home ISP", "Cell Carrier", "Changing providers"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if a.Exemplar(MACReuse) != nil {
		t.Error("exemplar for empty class should be nil")
	}
}

// Lifetime returns the identifier's observed lifetime.
func (m *MACInfo) Lifetime() time.Duration {
	return time.Duration(m.Last-m.First) * time.Second
}
