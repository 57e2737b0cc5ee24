package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
	"hitlist6/internal/cardinality"
	"hitlist6/internal/collector"
	"hitlist6/internal/hitlist"
)

// engineDB builds a small AS database whose prefixes cover the synthetic
// address space the engine tests draw from.
func engineDB(t testing.TB) *asdb.DB {
	t.Helper()
	db := asdb.NewDB()
	types := []asdb.ASType{asdb.TypeISP, asdb.TypePhoneProvider, asdb.TypeHosting, asdb.TypeEducation}
	for i := 0; i < 8; i++ {
		prefix, err := addr.ParsePrefix(fmt.Sprintf("2001:db8:%x00::/40", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddAS(asdb.AS{
			ASN:      asdb.ASN(100 + i),
			Name:     fmt.Sprintf("AS-%d", i),
			Country:  "DE",
			Type:     types[i%len(types)],
			Prefixes: []addr.Prefix{prefix},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// engineDataset draws a mixed synthetic population: random IIDs, low-byte
// IIDs, EUI-64 IIDs and v4-embedded IIDs spread over the engineDB ASes,
// plus some unrouted addresses.
func engineDataset(t testing.TB, seed int64, n int) *hitlist.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := hitlist.NewDataset("engine")
	for i := 0; i < n; i++ {
		var hi uint64
		if rng.Intn(10) == 0 {
			hi = 0x2400cb00_00000000 | uint64(rng.Intn(64))<<16 // unrouted
		} else {
			// 2001:db8:XY00::/40 per AS X, /48s varying in Y.
			hi = 0x20010db8_00000000 | uint64(rng.Intn(8))<<24 | uint64(rng.Intn(256))<<16
		}
		var lo uint64
		switch rng.Intn(6) {
		case 0:
			lo = uint64(rng.Intn(4) + 1) // low byte
		case 1:
			lo = uint64(rng.Uint32()) // low-4 random
		case 2: // EUI-64
			mac := uint64(rng.Intn(4096))
			lo = (mac&0xffffff)<<40 | 0xfffe<<24 | (mac >> 24 & 0xffffff) | 0x02000000_00000000
		case 3: // v4-embedded-ish (dotted decimal in hextets)
			lo = 0x00000000_c0a80000 | uint64(rng.Intn(256))
		default:
			lo = rng.Uint64() // fully random
		}
		d.Add(addr.FromParts(hi, lo))
	}
	return d
}

// TestSidecarColumnsMatchDirectComputation checks every column against
// the per-address primitives it caches.
func TestSidecarColumnsMatchDirectComputation(t *testing.T) {
	db := engineDB(t)
	d := engineDataset(t, 1, 3000)
	for _, workers := range []int{1, 4, 16} {
		sc := BuildSidecar(d, db, workers)
		view := d.View()
		if sc.Len() != len(view) {
			t.Fatalf("workers=%d: sidecar rows %d != dataset %d", workers, sc.Len(), len(view))
		}
		for i, a := range view {
			iid := a.IID()
			if sc.Entropy[i] != iid.NormalizedEntropy() {
				t.Fatalf("workers=%d row %d: entropy mismatch", workers, i)
			}
			if sc.V4Cand[i] != (len(iid.V4AnyCandidate()) > 0) {
				t.Fatalf("workers=%d row %d: v4cand mismatch", workers, i)
			}
			if sc.Cat[i] != iid.Categorize(false) {
				t.Fatalf("workers=%d row %d: category mismatch", workers, i)
			}
			asn, ok := db.OriginASN(a)
			if sc.HasAS[i] != ok {
				t.Fatalf("workers=%d row %d: HasAS mismatch", workers, i)
			}
			if ok {
				if sc.ASN[i] != asn {
					t.Fatalf("workers=%d row %d: ASN mismatch", workers, i)
				}
				if sc.ASType[i] != db.Lookup(a).Type {
					t.Fatalf("workers=%d row %d: ASType mismatch", workers, i)
				}
			}
		}
	}
}

// TestEngineWorkerEquivalence runs every sidecar analysis at 1/4/16
// workers and requires exactly equal results (reflect.DeepEqual on the
// result structures — including float64 fields, which must not drift).
func TestEngineWorkerEquivalence(t *testing.T) {
	db := engineDB(t)
	ntp := engineDataset(t, 1, 4000)
	hl := engineDataset(t, 2, 2500)
	caida := engineDataset(t, 3, 1000)

	type results struct {
		T1    *Table1
		F1    *Figure1
		F5    *Figure5
		Top   []ASEntropy
		Strat []StrategyProfile
		Share map[asdb.ASType]float64
	}
	run := func(workers int) results {
		scNTP := BuildSidecar(ntp, db, workers)
		scHL := BuildSidecar(hl, db, workers)
		scCAIDA := BuildSidecar(caida, db, workers)
		return results{
			T1:    ComputeTable1Sidecar(scNTP, scHL, scCAIDA, workers),
			F1:    ComputeFigure1Sidecar(scNTP, scHL, scCAIDA, workers),
			F5:    ComputeFigure5Sidecar(scNTP, scHL, workers),
			Top:   TopASEntropySidecar(scNTP, db, 5, workers),
			Strat: InferStrategiesSidecar(scNTP, db, 6, workers),
			Share: ASTypeShareSidecar(scNTP, workers),
		}
	}
	base := run(1)
	for _, workers := range []int{4, 16} {
		got := run(workers)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: engine results diverge from serial", workers)
		}
	}
}

// TestFigure2WorkerEquivalence folds the collector-side figures across
// worker counts.
func TestFigure2WorkerEquivalence(t *testing.T) {
	c := collector.New()
	rng := rand.New(rand.NewSource(5))
	base := time.Date(2022, 1, 25, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 30000; i++ {
		hi := 0x20010db8_00000000 | uint64(rng.Intn(512))<<16
		lo := rng.Uint64()
		if i%7 == 0 {
			lo = uint64(rng.Intn(4) + 1)
		}
		ts := base.Add(time.Duration(rng.Intn(200*24*3600)) * time.Second)
		c.Observe(addr.FromParts(hi, lo), ts, rng.Intn(3))
		if i%3 == 0 { // repeat sightings give nonzero lifetimes
			c.Observe(addr.FromParts(hi, lo), ts.Add(time.Duration(rng.Intn(3600*24*40))*time.Second), rng.Intn(3))
		}
	}
	f2aBase := ComputeFigure2aWorkers(c, 1)
	f2bBase := ComputeFigure2bWorkers(c.CopyRecords().IIDTable(), 1)
	for _, workers := range []int{4, 16} {
		if got := ComputeFigure2aWorkers(c, workers); !reflect.DeepEqual(got, f2aBase) {
			t.Errorf("Figure2a diverges at %d workers", workers)
		}
		if got := ComputeFigure2bWorkers(c.CopyRecords().IIDTable(), workers); !reflect.DeepEqual(got, f2bBase) {
			t.Errorf("Figure2b diverges at %d workers", workers)
		}
	}
	if f2aBase.ObservedOnce <= 0 || math.IsNaN(f2aBase.ObservedOnce) {
		t.Error("degenerate Figure 2a")
	}
}

// TestAddressSketchIsTheSetsSketch pins AddressSketch's contract: the
// registers are those of a serial per-address fill, at every worker
// count, and however [0, NumAddrs()) is cut into calls whose results
// are merged — what lets a reader resume the fold where it stopped.
func TestAddressSketchIsTheSetsSketch(t *testing.T) {
	c := collector.New()
	want, err := cardinality.NewHLL(14)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		a := addr.FromParts(0x20010db8_00000000|uint64(rng.Intn(4096))<<16, rng.Uint64())
		c.ObserveUnix(a, 1643673600, 0)
		want.AddAddr(a)
	}
	n := c.NumAddrs()
	for _, workers := range []int{1, 4, 16} {
		if got := AddressSketch(nil, c, 0, n, workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: sketch differs from the serial fill", workers)
		}
	}
	resumed := AddressSketch(nil, c, 0, 0, 1)
	if resumed.Estimate() != 0 {
		t.Errorf("empty range estimates %v", resumed.Estimate())
	}
	at := 0
	for _, cut := range []int{1, 2047, 2048, 9000, 9000, n} {
		if got := AddressSketch(resumed, c, at, cut, 4); got != resumed {
			t.Fatal("a resumed fold returned another sketch than it was given")
		}
		at = cut
	}
	if !reflect.DeepEqual(resumed, want) {
		t.Error("sketch resumed over six cuts differs from the serial fill")
	}
}
