package tracking

import (
	"math/rand"
	"reflect"
	"testing"

	"hitlist6/internal/addr"
)

// TestAnalyzeWorkerEquivalence builds a corpus with hundreds of EUI-64
// identifiers across several /64s and ASes and requires AnalyzeWorkers
// to return exactly Analyze's result at every worker count — MAC order,
// span contents, class counts, vendor tallies, floats and all.
func TestAnalyzeWorkerEquivalence(t *testing.T) {
	c, db, geo, reg := fixture(t)
	rng := rand.New(rand.NewSource(11))
	p64s := []uint64{
		0x2400_0100_0000_0001, 0x2400_0100_0000_0002, 0x2400_0100_0000_0003,
		0x2400_0200_0000_0001, 0x2400_0300_0000_0001,
	}
	for i := 0; i < 600; i++ {
		mac := addr.MAC{0x00, 0x3e, 0xe1, byte(i >> 8), byte(i), byte(rng.Intn(4))}
		// Each identifier visits 1..4 prefixes over up to 90 days.
		visits := 1 + rng.Intn(4)
		for v := 0; v < visits; v++ {
			observeEUI64(c, mac, p64s[rng.Intn(len(p64s))], rng.Intn(90))
		}
	}
	// Non-EUI-64 background traffic for the prevalence denominator.
	for i := 0; i < 5000; i++ {
		c.Observe(addr.FromParts(p64s[rng.Intn(len(p64s))], rng.Uint64()),
			base.AddDate(0, 0, rng.Intn(90)), rng.Intn(3))
	}

	want := AnalyzeWorkers(c.IIDTable(), db, geo, reg, 1)
	if len(want.MACs) == 0 || want.Trackable == 0 {
		t.Fatal("degenerate fixture: no trackable MACs")
	}
	for _, workers := range []int{2, 4, 16} {
		got := AnalyzeWorkers(c.IIDTable(), db, geo, reg, workers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("AnalyzeWorkers(%d) diverges from serial Analyze", workers)
		}
	}
}
