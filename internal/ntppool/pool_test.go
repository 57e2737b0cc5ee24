package ntppool

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/simnet"
)

func TestStudyVantages(t *testing.T) {
	vs := StudyVantages()
	if len(vs) != 27 {
		t.Fatalf("got %d vantages, want 27 (paper §3)", len(vs))
	}
	counts := make(map[string]int)
	for i, v := range vs {
		if v.ID != i {
			t.Errorf("vantage %d has ID %d", i, v.ID)
		}
		counts[v.Country]++
	}
	if counts["US"] != 6 || counts["JP"] != 2 || counts["DE"] != 2 {
		t.Errorf("country mix: %v", counts)
	}
}

func TestNewRequiresVantages(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty pool should fail")
	}
}

func TestSelectPrefersSameCountry(t *testing.T) {
	p, err := New(StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if v := p.Select("US"); v.Country != "US" {
			t.Fatalf("US client directed to %s", v.Country)
		}
	}
	// India has a vantage: must stay in-country.
	if v := p.Select("IN"); v.Country != "IN" {
		t.Errorf("IN client directed to %s", v.Country)
	}
}

func TestSelectContinentFallback(t *testing.T) {
	p, err := New(StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	// China has no vantage; fall back to an Asian server.
	for i := 0; i < 10; i++ {
		v := p.Select("CN")
		if v.Continent != "AS" {
			t.Fatalf("CN client directed to %s (%s)", v.Country, v.Continent)
		}
	}
	// Unknown country: global tier, any server is acceptable.
	v := p.Select("ZZ")
	if v.ID < 0 || v.ID >= 27 {
		t.Errorf("global fallback returned bad vantage %+v", v)
	}
}

func TestSelectRoundRobinRotates(t *testing.T) {
	p, err := New(StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < 12; i++ {
		seen[p.Select("US").ID] = true
	}
	if len(seen) != 6 {
		t.Errorf("round robin used %d of 6 US vantages", len(seen))
	}
}

func TestVendorZones(t *testing.T) {
	if VendorZone(simnet.KindPhone) != "android.pool.ntp.org" {
		t.Error("phones should use the android vendor zone")
	}
	if VendorZone(simnet.KindComputer) != "pool.ntp.org" {
		t.Error("computers should use the default zone")
	}
}

func TestRunCollectsQueries(t *testing.T) {
	cfg := simnet.DefaultConfig(21, 0.03)
	cfg.Days = 20
	w, err := simnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	c := collector.New()
	day := collector.New()
	dayStart := w.Origin.Add(10 * 24 * time.Hour)
	stats := Run(w, p, c, day, dayStart)

	if stats.Queries == 0 {
		t.Fatal("no queries replayed")
	}
	if c.NumAddrs() == 0 {
		t.Fatal("collector empty")
	}
	if day.NumAddrs() == 0 {
		t.Fatal("day collector empty")
	}
	if day.NumAddrs() >= c.NumAddrs() {
		t.Errorf("day slice (%d) should be smaller than full corpus (%d)",
			day.NumAddrs(), c.NumAddrs())
	}
	var used int
	for _, n := range stats.PerVantage {
		if n > 0 {
			used++
		}
	}
	if used < 10 {
		t.Errorf("only %d vantages saw traffic", used)
	}
	if stats.PerZone["android.pool.ntp.org"] == 0 {
		t.Error("no android-zone queries")
	}
	// The day collector must only contain sightings within the day.
	dayEnd := dayStart.Add(24 * time.Hour)
	day.AddrsRange(0, day.NumAddrs(), func(a addr.Addr, r collector.AddrRecord) bool {
		if r.First < dayStart.Unix() || r.Last >= dayEnd.Unix() {
			t.Errorf("day record for %s outside window: [%d, %d]", a, r.First, r.Last)
			return false
		}
		return true
	})
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/select_sequence.golden")

// TestSelectSequenceGolden pins the vantage sequence Select hands out
// for an interleaved country mix: same-country tiers (US, IN),
// continent fallbacks (CN and FR share tiers with other Asian and
// European clients), and the global tier (ZZ, ""). Every cursor must
// advance exactly as it always has, or every corpus's server bits move.
func TestSelectSequenceGolden(t *testing.T) {
	p, err := New(StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	mix := []string{"US", "IN", "CN", "FR", "ZZ", ""}
	rng := rand.New(rand.NewSource(7))
	var b strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "%d", p.Select(mix[rng.Intn(len(mix))]).ID)
		if i%20 == 19 {
			b.WriteByte('\n')
		} else {
			b.WriteByte(' ')
		}
	}
	const path = "testdata/select_sequence.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("vantage sequence differs from %s (run with -update only if the change is intended)", path)
	}
}

// selectMix returns the client countries of a small world's queries in
// generation order: the mix Select sees on the study's producer.
func selectMix(tb testing.TB) []string {
	cfg := simnet.DefaultConfig(3, 0.02)
	cfg.Days = 14
	w, err := simnet.Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var mix []string
	w.GenerateQueries(func(q simnet.Query) {
		if len(mix) < 1<<16 {
			mix = append(mix, w.Geo.Country(q.Addr))
		}
	})
	if len(mix) == 0 {
		tb.Fatal("world generated no queries")
	}
	return mix
}

var selectSink Vantage

// BenchmarkPoolSelect measures vantage selection over the study's
// client-country mix.
func BenchmarkPoolSelect(b *testing.B) {
	mix := selectMix(b)
	p, err := New(StudyVantages())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selectSink = p.Select(mix[i%len(mix)])
	}
}

// TestSelectAllocatesNothing pins Select at zero allocations once each
// client country has been seen.
func TestSelectAllocatesNothing(t *testing.T) {
	mix := append(selectMix(t), "US", "IN", "CN", "FR", "ZZ", "")
	p, err := New(StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	for _, cc := range mix {
		p.Select(cc)
	}
	i := 0
	if n := testing.AllocsPerRun(10_000, func() {
		p.Select(mix[i%len(mix)])
		i++
	}); n != 0 {
		t.Errorf("Select makes %v allocations per call, want 0", n)
	}
}
