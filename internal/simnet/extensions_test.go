package simnet

import (
	"testing"
	"time"

	"hitlist6/internal/asdb"
)

func TestPublicSeedsDeterministicAndStable(t *testing.T) {
	w := buildTiny(t, 51)
	at := w.Origin.Add(36 * time.Hour)
	a := w.PublicSeeds(at)
	b := w.PublicSeeds(at)
	if len(a) == 0 {
		t.Fatal("no public seeds")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d differs", i)
		}
	}
	// Sorted output.
	for i := 1; i < len(a); i++ {
		if a[i-1].Hi() > a[i].Hi() {
			t.Fatal("seeds not sorted")
		}
	}
	// Only server/CPE/computer addresses qualify; resolve via probing the
	// address at the snapshot time and checking device kinds.
	for _, s := range a[:min(20, len(a))] {
		res := w.Probe(s, at)
		if res.Device != nil {
			switch res.Device.Kind {
			case KindServer, KindCPE, KindComputer:
			default:
				t.Fatalf("public seed from %v device", res.Device.Kind)
			}
		}
	}
}

func TestPoolShareSplitsPopulation(t *testing.T) {
	w := buildTiny(t, 52)
	users, nonUsers := 0, 0
	for _, d := range w.Devices() {
		if d.UsesPool() {
			users++
		} else {
			nonUsers++
		}
	}
	if users == 0 || nonUsers == 0 {
		t.Fatalf("pool split degenerate: %d users / %d non-users", users, nonUsers)
	}
	// Pool users should be a majority-ish but not all (class shares are
	// 0.35–0.80).
	frac := float64(users) / float64(users+nonUsers)
	if frac < 0.3 || frac > 0.9 {
		t.Errorf("pool share %.2f outside configured band", frac)
	}
	// Non-pool devices never query.
	w.GenerateQueries(func(q Query) {
		if !q.Device.UsesPool() {
			t.Fatal("query from non-pool device")
		}
	})
}

func TestOutageWindowResolution(t *testing.T) {
	cfg := tinyConfig(53)
	for i := range cfg.ASes {
		if cfg.ASes[i].ASN == 7922 {
			cfg.ASes[i].Outages = []OutageWindow{{StartDay: 3, Hours: 12}}
		}
	}
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := w.asByASN[asdb.ASN(7922)]
	mid := (3*24 + 6) * time.Hour
	if !n.downAt(mid) {
		t.Error("AS not down mid-outage")
	}
	if n.downAt(mid + 12*time.Hour) {
		t.Error("AS down after outage end")
	}
	if n.downAt(0) {
		t.Error("AS down before outage")
	}
	// Other ASes unaffected.
	if w.asByASN[asdb.ASN(4134)].downAt(mid) {
		t.Error("unrelated AS down")
	}
}

func TestKindRateFactorsPositive(t *testing.T) {
	for k := DeviceKind(0); k < NumDeviceKinds; k++ {
		if kindRateFactor(k) <= 0 {
			t.Errorf("kind %v rate factor non-positive", k)
		}
		if poolShare(k) <= 0 || poolShare(k) > 1 {
			t.Errorf("kind %v pool share out of (0,1]", k)
		}
	}
}

func TestWindowBitsFor(t *testing.T) {
	cases := []struct {
		sites, slotBits, want int
	}{
		{1, 23, 10},   // floor
		{300, 23, 11}, // 4*300=1200 -> 2^11
		{10000, 23, 16},
		{1 << 22, 15, 15}, // clamped to slot space
	}
	for _, c := range cases {
		if got := windowBitsFor(c.sites, c.slotBits); got != c.want {
			t.Errorf("windowBitsFor(%d,%d): got %d want %d", c.sites, c.slotBits, got, c.want)
		}
	}
}

func TestDelegationsPackIntoFewP48s(t *testing.T) {
	// The density property behind Table 1: all customer /64s of an AS fit
	// inside a handful of /48s.
	w := buildTiny(t, 54)
	at := w.Origin.Add(time.Hour)
	for _, n := range w.ases {
		if len(n.sites) == 0 {
			continue
		}
		p48s := make(map[uint64]bool)
		for _, s := range n.sites {
			if s.aliased {
				continue
			}
			p48s[uint64(s.Subnet64(at, w.Origin, 1).P48())] = true
		}
		// Window of 2^10 /56 slots spans at most 4 /48s (plus /64-deleg
		// carriers: 1024 /64s fit inside one /48... allow slack).
		if len(p48s) > 64 {
			t.Errorf("AS%d customer /64s spread over %d /48s", n.cfg.ASN, len(p48s))
		}
	}
}
