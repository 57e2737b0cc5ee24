package matrix

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"hitlist6/internal/analysis"
	"hitlist6/internal/asdb"
	"hitlist6/internal/ingest"
	"hitlist6/internal/pager"
	"hitlist6/internal/workload"
)

// testOptions is the in-repo slice of the matrix: every profile, two
// seeds. CI's scenario-matrix job runs the same slice through
// cmd/scenario with -race; the nightly trigger runs Default().
func testOptions() Options {
	o := Reduced()
	if testing.Short() {
		o.Seeds = []int64{1}
	}
	return o
}

// TestMatrixReduced is the tentpole assertion: the reduced matrix runs
// clean — every (profile, seed) produces byte-identical corpus
// checksums and scenario reports across the straight run and the
// checkpoint/restore splits — and each profile ran exactly the legs its
// table names, seed by seed, in order.
func TestMatrixReduced(t *testing.T) {
	res, err := Run(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != len(workload.Names()) {
		t.Fatalf("ran %d scenarios, want %d", len(res.Scenarios), len(workload.Names()))
	}
	for _, sc := range res.Scenarios {
		if len(sc.Cells) == 0 {
			t.Errorf("%s: no cells executed", sc.Profile)
			continue
		}
		if sc.Headline.Events == 0 || sc.Headline.Addrs == 0 {
			t.Errorf("%s: empty headline: %+v", sc.Profile, sc.Headline)
		}
		if sc.Report == "" {
			t.Errorf("%s: no scenario report captured", sc.Profile)
		}
		p, _ := workload.Lookup(sc.Profile)
		var ran, want []string
		for _, seed := range sc.Seeds {
			for _, mode := range Legs(p) {
				want = append(want, fmt.Sprintf("seed=%d/%s", seed, mode))
			}
		}
		for _, c := range sc.Cells {
			ran = append(ran, fmt.Sprintf("seed=%d/%s", c.Seed, c.Mode))
			if c.Checksum == "" {
				t.Errorf("%s: cell %s has no checksum", sc.Profile, cellID(c))
			}
		}
		if !slices.Equal(ran, want) {
			t.Errorf("%s ran cells %v, want its leg table's %v", sc.Profile, ran, want)
		}
	}
}

// TestMatrixTierLegsCrossChunks runs the tiered profile at a size whose
// corpus cuts several tier chunks. At SizeSmall it fits in one, and a
// one-chunk tier sits on the cache's one-chunk floor whatever the
// budget, so the residency assertion the tier legs make during their
// walk can only fail — an eviction that stopped working, a walk that
// stopped going through the cache — here.
func TestMatrixTierLegsCrossChunks(t *testing.T) {
	res, err := Run(Options{
		Profiles: []string{"cold-replay"},
		Seeds:    []int64{1},
		Size:     workload.Size{Scale: 0.5, Days: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	legs := 0
	for _, c := range res.Scenarios[0].Cells {
		if !strings.HasPrefix(c.Mode, "tier-") {
			continue
		}
		legs++
		if c.Addrs <= 2*pager.TierChunkRecs {
			t.Fatalf("%s walked %d addresses: not past two chunks of %d", c.Mode, c.Addrs, pager.TierChunkRecs)
		}
	}
	if legs != 3 {
		t.Fatalf("ran %d tier legs, want 3", legs)
	}
}

// TestMatrixCollisionSkew pins the collision profile's reason to
// exist: its probe runs must dwarf the paper baseline's.
func TestMatrixCollisionSkew(t *testing.T) {
	res, err := Run(Options{Profiles: []string{"paper", "collision"}, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	var paper, collision Headline
	for _, sc := range res.Scenarios {
		switch sc.Profile {
		case "paper":
			paper = sc.Headline
		case "collision":
			collision = sc.Headline
		}
	}
	if collision.ProbeMax <= 4*paper.ProbeMax {
		t.Errorf("collision ProbeMax %d not well above paper's %d", collision.ProbeMax, paper.ProbeMax)
	}
	if collision.ProbeP99 <= paper.ProbeP99 {
		t.Errorf("collision ProbeP99 %d not above paper's %d", collision.ProbeP99, paper.ProbeP99)
	}
}

// TestMatrixStormDetects pins the outage-storm scenario report: the
// engineered windows make exactly the ShouldTrip detections through
// the real pipeline's outage stage.
func TestMatrixStormDetects(t *testing.T) {
	opts := Options{
		Profiles: []string{"outage-storm"},
		Seeds:    []int64{1},
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	sc := res.Scenarios[0]
	_, windows := workload.OutageStormSpec(1, opts.Size)
	want := 0
	for _, w := range windows {
		if w.ShouldTrip {
			want++
		}
	}
	if sc.Headline.Detected != want {
		t.Fatalf("detected %d outages, want %d\nreport:\n%s", sc.Headline.Detected, want, sc.Report)
	}
	if !strings.Contains(sc.Report, "detected") {
		t.Fatalf("report missing detection block:\n%s", sc.Report)
	}
}

// TestFingerprintFoldsMatchPerEventStages holds the report's categories,
// cardinality and asns lines — folds over the closed corpus — to
// per-event oracles fed the same events: the retained CategoryStage and
// HLLStage running inline beside the cell's own stages, and an origin-AS
// tally taken straight off the stream. The sketch must be the stage's
// register for register.
func TestFingerprintFoldsMatchPerEventStages(t *testing.T) {
	for _, name := range []string{"paper", "collision", "churn"} {
		p, _ := workload.Lookup(name)
		st, err := p.Stream(1, workload.SizeSmall)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cellConfig(p, st, false)
		cfg.Stages = append(cfg.Stages, ingest.Categories(), ingest.Cardinality(14))
		pl, err := ingest.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pl.Ingest(st.Events)
		col := pl.Close()

		var want bytes.Buffer
		want.WriteString("categories")
		for i, n := range pl.Stage("categories").(*ingest.CategoryStage).Counts {
			fmt.Fprintf(&want, " %d=%d", i, n)
		}
		sketch := pl.Stage("cardinality").(*ingest.HLLStage).H
		fmt.Fprintf(&want, "\ncardinality %.1f\n", sketch.Estimate())
		if st.ASDB != nil {
			perAS := make(map[asdb.ASN]uint64)
			for _, ev := range st.Events {
				asn, _ := st.ASDB.OriginASN(ev.Addr)
				perAS[asn]++
			}
			keys := make([]asdb.ASN, 0, len(perAS))
			for asn := range perAS {
				keys = append(keys, asn)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			want.WriteString("asns")
			for _, asn := range keys {
				fmt.Fprintf(&want, " AS%d=%d", asn, perAS[asn])
			}
			want.WriteByte('\n')
		}
		report := renderReport(st, col, pl, &Cell{})
		if !bytes.Contains(report, want.Bytes()) {
			t.Errorf("%s: report lacks the per-event stages' lines\n--- want\n%s--- report\n%s", name, want.Bytes(), report)
		}
		if hasASNs := bytes.Contains(report, []byte("\nasns ")); hasASNs != (st.ASDB != nil) {
			t.Errorf("%s: asns line present = %v, routing DB present = %v", name, hasASNs, st.ASDB != nil)
		}
		if got := analysis.AddressSketch(nil, col, 0, col.NumAddrs(), 1); !reflect.DeepEqual(got, sketch) {
			t.Errorf("%s: corpus sketch is not the per-event sketch: estimates %.1f vs %.1f",
				name, got.Estimate(), sketch.Estimate())
		}
	}
}

// TestMatrixUnknownProfile exercises the error path.
func TestMatrixUnknownProfile(t *testing.T) {
	if _, err := Run(Options{Profiles: []string{"no-such"}}); err == nil {
		t.Fatal("unknown profile accepted")
	}
}
