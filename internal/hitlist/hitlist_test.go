package hitlist

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/simnet"
)

func TestDatasetBasics(t *testing.T) {
	d := NewDataset("test")
	a1 := addr.MustParse("2001:db8::1")
	a2 := addr.MustParse("2001:db8::2")
	d.Add(a1)
	d.Add(a1) // idempotent
	d.AddAll([]addr.Addr{a2})
	if d.Len() != 2 {
		t.Fatalf("Len: %d", d.Len())
	}
	if !d.Contains(a1) || !d.Contains(a2) {
		t.Error("membership broken")
	}
	if d.Contains(addr.MustParse("2001:db8::3")) {
		t.Error("phantom member")
	}
	if got := len(d.Addrs()); got != 2 {
		t.Errorf("Addrs: %d", got)
	}
	n := 0
	d.Each(func(addr.Addr) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop: %d", n)
	}
}

func TestIntersectionSize(t *testing.T) {
	a := NewDataset("a")
	b := NewDataset("b")
	for i := 1; i <= 10; i++ {
		a.Add(addr.FromParts(0x20010db8_00000000, uint64(i)))
	}
	for i := 6; i <= 15; i++ {
		b.Add(addr.FromParts(0x20010db8_00000000, uint64(i)))
	}
	if got := IntersectionSize(a, b); got != 5 {
		t.Errorf("intersection: %d want 5", got)
	}
	if got := IntersectionSize(b, a); got != 5 {
		t.Errorf("intersection symmetric: %d want 5", got)
	}
	if got := IntersectionSize(a, NewDataset("empty")); got != 0 {
		t.Errorf("empty intersection: %d", got)
	}
}

func TestAliasList(t *testing.T) {
	l := NewAliasList()
	p := addr.MustParse("2001:db8:1:2::").P64()
	if l.Contains(p) {
		t.Error("empty list contains")
	}
	l.Add(p)
	l.Add(p)
	if !l.Contains(p) || l.Len() != 1 {
		t.Errorf("len=%d", l.Len())
	}
	n := 0
	l.Each(func(addr.Prefix64) bool { n++; return true })
	if n != 1 {
		t.Errorf("Each visited %d", n)
	}
}

func TestRelease48Truncation(t *testing.T) {
	d := NewDataset("corpus")
	// Two addresses in one /48, one in another; full IIDs must not leak.
	d.Add(addr.MustParse("2001:db8:aaaa:1:1234:5678:9abc:def0"))
	d.Add(addr.MustParse("2001:db8:aaaa:2::1"))
	d.Add(addr.MustParse("2400:cb00:1::99"))
	out := Release(d)
	if !strings.Contains(out, "2001:db8:aaaa::/48") {
		t.Errorf("missing /48:\n%s", out)
	}
	if !strings.Contains(out, "2400:cb00:1::/48") {
		t.Errorf("missing second /48:\n%s", out)
	}
	if strings.Contains(out, "9abc") || strings.Contains(out, "def0") {
		t.Error("full address leaked into release")
	}
	if !strings.Contains(out, "2 active /48") {
		t.Errorf("header should count 2 prefixes:\n%s", out)
	}
}

func TestFromCollector(t *testing.T) {
	c := collector.New()
	t0 := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	c.Observe(addr.MustParse("2001:db8::1"), t0, 0)
	c.Observe(addr.MustParse("2001:db8::2"), t0, 1)
	c.Observe(addr.MustParse("2001:db8::1"), t0.Add(time.Hour), 2)
	d := FromCollector("ntp", c)
	if d.Len() != 2 {
		t.Errorf("Len: %d", d.Len())
	}
}

// TestFromCollectorAllocs gates the NTP datasets' build: on a corpus of
// 120 k addresses, FromCollector allocates the sorted slice and one
// scratch slice of the same size — 32 B per address — plus 64 KiB.
func TestFromCollectorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	c := collector.New()
	state := uint64(0xa110c)
	for i := 0; i < 120_000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		c.ObserveUnix(addr.FromParts(0x20010db8_00000000|state>>52<<16, state), int64(1_643_673_600+i), 0)
	}
	n := c.NumAddrs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := FromCollector("ntp", c)
	runtime.ReadMemStats(&after)
	if d.Len() != n {
		t.Fatalf("dataset holds %d of %d addresses", d.Len(), n)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*n+64<<10); got > limit {
		t.Errorf("FromCollector over %d addresses allocated %d B; limit %d", n, got, limit)
	}
}

// TestFromCollectorDeterministic pins the canonical-order contract: the
// same corpus — even built in different insertion orders — must yield
// identically ordered datasets on every run, so dataset-derived analyses
// and serializations stop depending on map iteration order.
func TestFromCollectorDeterministic(t *testing.T) {
	t0 := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	var addrs []addr.Addr
	state := uint64(0xd5)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < 500; i++ {
		addrs = append(addrs, addr.FromParts(next(), next()))
	}

	forward, reverse := collector.New(), collector.New()
	for i, a := range addrs {
		forward.Observe(a, t0.Add(time.Duration(i)*time.Second), 0)
	}
	for i := len(addrs) - 1; i >= 0; i-- {
		reverse.Observe(addrs[i], t0.Add(time.Duration(i)*time.Second), 0)
	}

	want := FromCollector("ntp", forward).Addrs()
	for run := 0; run < 3; run++ {
		for label, c := range map[string]*collector.Collector{"forward": forward, "reverse": reverse} {
			got := FromCollector("ntp", c).Addrs()
			if len(got) != len(want) {
				t.Fatalf("%s run %d: %d addrs, want %d", label, run, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s run %d: order diverges at %d: %s vs %s",
						label, run, i, got[i], want[i])
				}
			}
		}
	}
	// And the order is the canonical (sorted) one.
	for i := 1; i < len(want); i++ {
		prev, cur := want[i-1], want[i]
		if prev.Hi() > cur.Hi() || (prev.Hi() == cur.Hi() && prev.Lo() >= cur.Lo()) {
			t.Fatalf("dataset order not canonical at %d: %s then %s", i, prev, cur)
		}
	}
}

func TestSplit48s(t *testing.T) {
	p := addr.MustParsePrefix("2001:db8::/44")
	got := split48s(p, 0)
	if len(got) != 16 {
		t.Fatalf("/44 splits into %d /48s, want 16", len(got))
	}
	seen := make(map[addr.Prefix48]bool)
	for _, p48 := range got {
		if seen[p48] {
			t.Fatal("duplicate /48")
		}
		seen[p48] = true
		if !p.Contains(p48.Addr()) {
			t.Fatalf("/48 %s outside parent", p48)
		}
	}
	// Cap respected.
	if got := split48s(p, 4); len(got) != 4 {
		t.Errorf("cap: %d", len(got))
	}
	// Longer-than-48 prefixes collapse to their /48.
	long := addr.MustParsePrefix("2001:db8:1:2::/64")
	if got := split48s(long, 0); len(got) != 1 || got[0] != long.Addr().P48() {
		t.Errorf("long prefix: %v", got)
	}
}

func buildWorld(t testing.TB, seed int64, scale float64, days int) *simnet.World {
	t.Helper()
	cfg := simnet.DefaultConfig(seed, scale)
	cfg.Days = days
	w, err := simnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildActiveHitlist(t *testing.T) {
	w := buildWorld(t, 41, 0.03, 20)
	cfg := DefaultActiveConfig(w.Origin, w.End, 7)
	cfg.Rounds = 2
	res, err := BuildActiveHitlist(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset.Len() == 0 {
		t.Fatal("empty hitlist")
	}
	if res.ProbesSent == 0 {
		t.Error("no probes counted")
	}
	// All routers must be present (they respond and are seeds).
	for _, r := range w.Routers() {
		if !res.Dataset.Contains(r) {
			t.Errorf("router %s missing from hitlist", r)
		}
	}
	// No published address may fall in a published aliased prefix.
	res.Dataset.Each(func(a addr.Addr) bool {
		if res.Aliases.Contains(a.P64()) {
			t.Errorf("aliased address %s in hitlist", a)
			return false
		}
		return true
	})
	// Detected aliases must be ground truth aliased.
	res.Aliases.Each(func(p addr.Prefix64) bool {
		if !w.IsAliased(p) {
			t.Errorf("false alias %s", p)
		}
		return true
	})
	// The hitlist must skew low-entropy (infrastructure), unlike the NTP
	// corpus (Figure 1).
	low, total := 0, 0
	res.Dataset.Each(func(a addr.Addr) bool {
		total++
		if a.IID().EntropyClass() == addr.LowEntropy {
			low++
		}
		return true
	})
	if low*2 < total {
		t.Errorf("hitlist entropy mix implausible: %d/%d low", low, total)
	}
}

func TestBuildCAIDA48(t *testing.T) {
	w := buildWorld(t, 42, 0.03, 20)
	d, err := BuildCAIDA48(w, CAIDAConfig{
		At:          w.Origin.Add(10 * 24 * time.Hour),
		SourceASN:   7922,
		Seed:        3,
		MaxSplit48s: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 {
		t.Fatal("empty CAIDA dataset")
	}
	// CAIDA's discoveries are nearly all low-entropy infrastructure
	// (Figure 1's leftmost curve).
	low, total := 0, 0
	d.Each(func(a addr.Addr) bool {
		total++
		if a.IID().EntropyClass() == addr.LowEntropy {
			low++
		}
		return true
	})
	if float64(low) < 0.8*float64(total) {
		t.Errorf("CAIDA entropy mix: %d/%d low", low, total)
	}
}
