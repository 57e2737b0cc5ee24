package analysis

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
	"hitlist6/internal/collector"
	"hitlist6/internal/hitlist"
)

func mkDataset(name string, addrs ...string) *hitlist.Dataset {
	d := hitlist.NewDataset(name)
	for _, s := range addrs {
		d.Add(addr.MustParse(s))
	}
	return d
}

func TestEntropyDist(t *testing.T) {
	d := mkDataset("d",
		"2001:db8::1",                  // low entropy
		"2001:db8::123:4567:89ab:cdef", // high-ish
		"2001:db8::dead:beef:1234:5678",
	)
	dist := BuildSidecar(d, nil, 1).EntropyDist()
	if dist.N() != 3 {
		t.Fatalf("N: %d", dist.N())
	}
	if dist.Min() > 0.25 {
		t.Errorf("::1 should contribute near-zero entropy, min %v", dist.Min())
	}
	if dist.Max() < 0.7 {
		t.Errorf("random IIDs should reach high entropy, max %v", dist.Max())
	}
}

func TestIntersectionEntropy(t *testing.T) {
	a := mkDataset("a", "2001:db8::1", "2001:db8::2", "2001:db8::dead:beef:1:2")
	b := mkDataset("b", "2001:db8::2", "2001:db8::dead:beef:1:2", "2001:db8::99")
	sa, sb := BuildSidecar(a, nil, 1), BuildSidecar(b, nil, 1)
	dist := intersectionEntropy(sa, sb)
	if dist.N() != 2 {
		t.Fatalf("intersection N: %d", dist.N())
	}
	// Symmetric regardless of argument order.
	dist2 := intersectionEntropy(sb, sa)
	if dist2.N() != 2 {
		t.Fatalf("reverse N: %d", dist2.N())
	}
}

func TestComputeFigure1(t *testing.T) {
	ntp := mkDataset("ntp", "2001:db8::aaaa:bbbb:cccc:dddd", "2001:db8::1")
	hl := mkDataset("hl", "2001:db8::1", "2001:db8::2")
	caida := mkDataset("caida", "2001:db8::1")
	f := ComputeFigure1Sidecar(BuildSidecar(ntp, nil, 1), BuildSidecar(hl, nil, 1), BuildSidecar(caida, nil, 1), 1)
	if f.NTP.N() != 2 || f.Hitlist.N() != 2 || f.CAIDA.N() != 1 {
		t.Error("curve sizes wrong")
	}
	if f.NTPxHitlist.N() != 1 || f.NTPxCAIDA.N() != 1 {
		t.Error("intersection sizes wrong")
	}
}

func testDB(t *testing.T) *asdb.DB {
	t.Helper()
	db := asdb.NewDB()
	for i, spec := range []struct {
		asn  asdb.ASN
		name string
		ty   asdb.ASType
		pfx  string
	}{
		{100, "Alpha Mobile", asdb.TypePhoneProvider, "2400:100::/32"},
		{200, "Beta ISP", asdb.TypeISP, "2400:200::/32"},
		{300, "Gamma Host", asdb.TypeHosting, "2400:300::/32"},
	} {
		if err := db.AddAS(asdb.AS{
			ASN: spec.asn, Name: spec.name, Type: spec.ty,
			Prefixes: []addr.Prefix{addr.MustParsePrefix(spec.pfx)},
		}); err != nil {
			t.Fatalf("AS %d: %v", i, err)
		}
	}
	return db
}

func TestTopASEntropy(t *testing.T) {
	db := testDB(t)
	d := hitlist.NewDataset("d")
	// 5 addresses in AS100, 3 in AS200, 1 in AS300, 1 unrouted.
	for i := 0; i < 5; i++ {
		d.Add(addr.MustParse(fmt.Sprintf("2400:100::%d:abcd:ef12:3456", i+1)))
	}
	for i := 0; i < 3; i++ {
		d.Add(addr.MustParse(fmt.Sprintf("2400:200::%d", i+1)))
	}
	d.Add(addr.MustParse("2400:300::1"))
	d.Add(addr.MustParse("3fff::1"))

	top := TopASEntropySidecar(BuildSidecar(d, db, 1), db, 2, 1)
	if len(top) != 2 {
		t.Fatalf("top: %d", len(top))
	}
	if top[0].ASN != 100 || top[0].Count != 5 {
		t.Errorf("top[0]: %+v", top[0])
	}
	if top[1].ASN != 200 || top[1].Count != 3 {
		t.Errorf("top[1]: %+v", top[1])
	}
	if top[0].Name != "Alpha Mobile" {
		t.Errorf("name: %q", top[0].Name)
	}
	// AS200's operator addresses are low entropy; AS100's are high.
	if top[0].Dist.Median() <= top[1].Dist.Median() {
		t.Error("entropy ordering wrong")
	}
	// topN=0 returns all ASes.
	if got := TopASEntropySidecar(BuildSidecar(d, db, 1), db, 0, 1); len(got) != 3 {
		t.Errorf("all ASes: %d", len(got))
	}
}

func TestASTypeShare(t *testing.T) {
	db := testDB(t)
	d := mkDataset("d",
		"2400:100::1", "2400:100::2", // phone
		"2400:200::1", // isp
		"3fff::1",     // unrouted, excluded
	)
	share := ASTypeShareSidecar(BuildSidecar(d, db, 1), 1)
	if got := share[asdb.TypePhoneProvider]; got < 0.66 || got > 0.67 {
		t.Errorf("phone share: %v", got)
	}
	if got := share[asdb.TypeISP]; got < 0.33 || got > 0.34 {
		t.Errorf("isp share: %v", got)
	}
	if share[asdb.TypeHosting] != 0 {
		t.Errorf("hosting share: %v", share[asdb.TypeHosting])
	}
	if got := ASTypeShareSidecar(BuildSidecar(hitlist.NewDataset("empty"), db, 1), 1); len(got) != 0 {
		t.Errorf("empty dataset share: %v", got)
	}
}

func obsAt(c *collector.Collector, a string, at time.Time) {
	c.Observe(addr.MustParse(a), at, 0)
}

func TestComputeFigure2a(t *testing.T) {
	c := collector.New()
	t0 := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	// 6 addresses seen once, 2 seen across a week+, 1 across 40 days, 1 across 200 days.
	for i := 0; i < 6; i++ {
		obsAt(c, fmt.Sprintf("2001:db8::%d", i+1), t0)
	}
	obsAt(c, "2001:db8::100", t0)
	obsAt(c, "2001:db8::100", t0.Add(8*24*time.Hour))
	obsAt(c, "2001:db8::101", t0)
	obsAt(c, "2001:db8::101", t0.Add(9*24*time.Hour))
	obsAt(c, "2001:db8::102", t0)
	obsAt(c, "2001:db8::102", t0.Add(40*24*time.Hour))
	obsAt(c, "2001:db8::103", t0)
	obsAt(c, "2001:db8::103", t0.Add(200*24*time.Hour))

	f := ComputeFigure2aWorkers(c, 1)
	if f.ObservedOnce != 0.6 {
		t.Errorf("observed once: %v want 0.6", f.ObservedOnce)
	}
	if f.WeekOrLonger != 0.4 {
		t.Errorf("week+: %v want 0.4", f.WeekOrLonger)
	}
	if f.MonthOrLonger < 0.199 || f.MonthOrLonger > 0.201 {
		t.Errorf("month+: %v want 0.2", f.MonthOrLonger)
	}
	if f.SixMonthsOrLonger < 0.099 || f.SixMonthsOrLonger > 0.101 {
		t.Errorf("6mo+: %v want 0.1", f.SixMonthsOrLonger)
	}
	if len(f.CCDF) != len(LifetimeMarks) {
		t.Errorf("CCDF marks: %d", len(f.CCDF))
	}
	// CCDF must be non-increasing across the marks.
	for i := 1; i < len(f.CCDF); i++ {
		if f.CCDF[i].Y > f.CCDF[i-1].Y {
			t.Error("CCDF not monotone")
		}
	}
}

func TestComputeFigure2b(t *testing.T) {
	c := collector.New()
	t0 := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	// Low-entropy IID persisting a month; high-entropy IID seen once.
	obsAt(c, "2001:db8::1", t0)
	obsAt(c, "2001:db8::1", t0.Add(30*24*time.Hour))
	obsAt(c, "2001:db8::abcd:ef01:2345:6789", t0)

	f := ComputeFigure2bWorkers(c.IIDTable(), 1)
	if low, ok := f.ByClass[addr.LowEntropy]; !ok || low != 1 {
		t.Fatalf("low class: %d IIDs (present %v), want 1", low, ok)
	}
	if f.WeekOrLonger[addr.LowEntropy] != 1 {
		t.Errorf("low week+: %v", f.WeekOrLonger[addr.LowEntropy])
	}
	if f.ObservedOnce[addr.HighEntropy] != 1 {
		t.Errorf("high observed-once: %v", f.ObservedOnce[addr.HighEntropy])
	}
}

func TestCategorizeDataset(t *testing.T) {
	db := testDB(t)
	d := hitlist.NewDataset("d")
	d.Add(addr.MustParse("2400:200::"))                    // zeroes? :: IID = 0 -> Zeroes
	d.Add(addr.MustParse("2400:200::1"))                   // low byte
	d.Add(addr.MustParse("2400:200::1:0"))                 // low 2 bytes? 0x10000 -> no: 3 bytes
	d.Add(addr.MustParse("2400:200::abc"))                 // low 2 bytes? 0xabc -> yes (2 bytes)
	d.Add(addr.MustParse("2400:100::1234:5678:9abc:def1")) // high entropy
	b := CategorizeSidecar(BuildSidecar(d, db, 1), 1)
	if b.Total != 5 {
		t.Fatalf("total: %d", b.Total)
	}
	if b.Counts[addr.CatZeroes] != 1 {
		t.Errorf("zeroes: %d", b.Counts[addr.CatZeroes])
	}
	if b.Counts[addr.CatLowByte] != 1 {
		t.Errorf("low byte: %d", b.Counts[addr.CatLowByte])
	}
	if b.Counts[addr.CatLow2Bytes] != 1 {
		t.Errorf("low 2 bytes: %d", b.Counts[addr.CatLow2Bytes])
	}
	if b.Counts[addr.CatHighEntropy] != 1 {
		t.Errorf("high entropy: %d", b.Counts[addr.CatHighEntropy])
	}
	var fracSum float64
	for _, f := range b.Fractions {
		fracSum += f
	}
	if fracSum < 0.999 || fracSum > 1.001 {
		t.Errorf("fractions sum: %v", fracSum)
	}
}

func TestCategorizeV4Corroboration(t *testing.T) {
	db := testDB(t)
	d := hitlist.NewDataset("d")
	// 10 v4-hex embedded addresses in AS200 (enough to pass the scaled
	// rule: floor of 5 instances, >=10% of the AS).
	for i := 0; i < 10; i++ {
		d.Add(addr.FromParts(0x2400_0200_0000_0000, uint64(0xc0a80000+i)))
	}
	b := CategorizeSidecar(BuildSidecar(d, db, 1), 1)
	if b.Counts[addr.CatV4Mapped] != 10 {
		t.Errorf("v4-mapped: %d want 10 (%v)", b.Counts[addr.CatV4Mapped], b.Counts)
	}

	// A single candidate in a big AS must NOT be accepted.
	d2 := hitlist.NewDataset("d2")
	d2.Add(addr.FromParts(0x2400_0200_0000_0000, 0xc0a80001))
	for i := 0; i < 50; i++ {
		d2.Add(addr.FromParts(0x2400_0200_0000_0000, uint64(0x123456789a000000)+uint64(i)<<8|0xb1))
	}
	b2 := CategorizeSidecar(BuildSidecar(d2, db, 1), 1)
	if b2.Counts[addr.CatV4Mapped] != 0 {
		t.Errorf("lone candidate accepted: %v", b2.Counts)
	}
}

func TestComputeFigure5(t *testing.T) {
	db := testDB(t)
	ntp := mkDataset("ntp", "2400:100::1234:5678:9abc:def1")
	hl := mkDataset("hl", "2400:200::1")
	f := ComputeFigure5Sidecar(BuildSidecar(ntp, db, 1), BuildSidecar(hl, db, 1), 1)
	if f.NTP.Counts[addr.CatHighEntropy] != 1 {
		t.Error("NTP day breakdown wrong")
	}
	if f.Hitlist.Counts[addr.CatLowByte] != 1 {
		t.Error("Hitlist day breakdown wrong")
	}
}

func TestTable1Render(t *testing.T) {
	db := testDB(t)
	ntp := mkDataset("NTP", "2400:100::a:b:c:d", "2400:100::1:2:3:4", "2400:200::5")
	hl := mkDataset("Hitlist", "2400:200::5", "2400:200::1")
	caida := mkDataset("CAIDA", "2400:300::1")
	t1 := ComputeTable1Sidecar(BuildSidecar(ntp, db, 1), BuildSidecar(hl, db, 1), BuildSidecar(caida, db, 1), 1)
	if t1.NTP.Addrs != 3 || t1.Hitlist.CommonAddrs != 1 || t1.CAIDA.CommonAddrs != 0 {
		t.Errorf("table: %+v", t1)
	}
	out := t1.Render()
	for _, want := range []string{"Table 1", "NTP", "Hitlist", "CAIDA", "Avg/48"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
