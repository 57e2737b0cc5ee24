package matrix

import (
	"strings"
	"testing"

	"hitlist6/internal/pager"
	"hitlist6/internal/workload"
)

// testOptions is the in-repo slice of the matrix: every profile, the
// shard-count extremes, two seeds. CI's
// scenario-matrix job runs the same slice through cmd/scenario with
// -race; the nightly trigger runs Default().
func testOptions() Options {
	o := Reduced()
	if testing.Short() {
		o.Shards = []int{1, 4}
		o.Seeds = []int64{1}
	}
	return o
}

// TestMatrixReduced is the tentpole assertion: the reduced matrix runs
// clean — every (profile, seed) produces byte-identical corpus
// checksums and scenario reports across shard counts and the
// checkpoint/restore split.
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
		modes := map[string]int{}
		for _, c := range sc.Cells {
			modes[c.Mode]++
			if c.Mode != "drop" && c.Checksum == "" {
				t.Errorf("%s: cell %s has no checksum", sc.Profile, cellID(c))
			}
		}
		p, _ := workload.Lookup(sc.Profile)
		if p.Durable && modes["restore"] == 0 {
			t.Errorf("%s: durable profile ran no restore cells", sc.Profile)
		}
		if p.Hints.DropRun && modes["drop"] == 0 {
			t.Errorf("%s: drop-hinted profile ran no drop cells", sc.Profile)
		}
		if p.Tiered {
			for _, m := range []string{"delta-restore", "tier-resident", "tier-budget", "tier-cold"} {
				if modes[m] == 0 {
					t.Errorf("%s: tiered profile ran no %s cells", sc.Profile, m)
				}
			}
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
		Shards:   []int{4},
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
	opts := Options{
		Profiles:    []string{"paper", "collision"},
		Shards:      []int{4},
		Seeds:       []int64{1},
		SkipDurable: true,
	}
	res, err := Run(opts)
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
		Shards:   []int{4},
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

// TestMatrixUnknownProfile exercises the error path.
func TestMatrixUnknownProfile(t *testing.T) {
	if _, err := Run(Options{Profiles: []string{"no-such"}}); err == nil {
		t.Fatal("unknown profile accepted")
	}
}
