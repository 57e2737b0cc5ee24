package workload

import (
	"testing"
	"time"

	"hitlist6/internal/asdb"
	"hitlist6/internal/outage"
)

// TestCatalog pins the profile roster the matrix, CLI and bench report
// all enumerate: seven named profiles in a fixed presentation order.
func TestCatalog(t *testing.T) {
	want := []string{"paper", "churn", "eui64-dense", "outage-storm", "collision", "cold-replay", "backpressure"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("catalog has %d profiles, want %d: %v", len(got), len(want), got)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("catalog[%d] = %q, want %q (full: %v)", i, got[i], name, got)
		}
		p, ok := Lookup(name)
		if !ok || p.Name != name {
			t.Fatalf("Lookup(%q) = %v, %v", name, p, ok)
		}
		if p.Description == "" {
			t.Errorf("%s: empty description", name)
		}
	}
	if _, ok := Lookup("no-such-profile"); ok {
		t.Fatal("Lookup accepted an unknown name")
	}
}

// TestStreamDeterminism is the generator half of the repo's standing
// invariant: the same (profile, seed, size) must yield the identical
// event stream twice, and a different seed must not.
func TestStreamDeterminism(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			a, err := p.Stream(1, SizeSmall)
			if err != nil {
				t.Fatal(err)
			}
			b, err := p.Stream(1, SizeSmall)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Events) == 0 {
				t.Fatal("empty stream")
			}
			if len(a.Events) != len(b.Events) {
				t.Fatalf("same seed, different lengths: %d vs %d", len(a.Events), len(b.Events))
			}
			for i := range a.Events {
				if a.Events[i] != b.Events[i] {
					t.Fatalf("same seed diverges at event %d: %+v vs %+v", i, a.Events[i], b.Events[i])
				}
			}
			if a.Profile != p.Name || a.Seed != 1 {
				t.Fatalf("stream not stamped: profile=%q seed=%d", a.Profile, a.Seed)
			}
			if !a.Origin.Before(a.End) || a.Bin <= 0 {
				t.Fatalf("bad window: origin=%v end=%v bin=%v", a.Origin, a.End, a.Bin)
			}

			c, err := p.Stream(2, SizeSmall)
			if err != nil {
				t.Fatal(err)
			}
			same := len(a.Events) == len(c.Events)
			if same {
				for i := range a.Events {
					if a.Events[i] != c.Events[i] {
						same = false
						break
					}
				}
			}
			if same {
				t.Fatal("seed 1 and seed 2 produced identical streams")
			}
		})
	}
}

// TestStreamValidation exercises the Size guardrails.
func TestStreamValidation(t *testing.T) {
	p, _ := Lookup("paper")
	if _, err := p.Stream(1, Size{Scale: 0, Days: 8}); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := p.Stream(1, Size{Scale: 0.02, Days: 0}); err == nil {
		t.Fatal("zero days accepted")
	}
}

// uniqueRatio is the unique-address share of a stream's sightings.
func uniqueRatio(st *Stream) float64 {
	uniq := make(map[[2]uint64]struct{}, len(st.Events))
	for _, e := range st.Events {
		uniq[[2]uint64{e.Addr.Hi(), e.Addr.Lo()}] = struct{}{}
	}
	return float64(len(uniq)) / float64(len(st.Events))
}

// TestChurnShape asserts the churn profile actually shifts the regime it
// claims to: unique-address growth well above the paper baseline.
func TestChurnShape(t *testing.T) {
	paper, _ := Lookup("paper")
	churn, _ := Lookup("churn")
	ps, err := paper.Stream(1, SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := churn.Stream(1, SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	pr, cr := uniqueRatio(ps), uniqueRatio(cs)
	if cr <= pr {
		t.Fatalf("churn unique ratio %.3f not above paper baseline %.3f", cr, pr)
	}
	if cr < 0.5 {
		t.Fatalf("churn unique ratio %.3f; want >= 0.5 (observed-once dominated)", cr)
	}
}

// TestColdReplayShape asserts the replay pass re-observes instead of
// growing the corpus: double the paper baseline's sightings over the
// identical unique-address population, in a doubled window.
func TestColdReplayShape(t *testing.T) {
	paper, _ := Lookup("paper")
	cold, _ := Lookup("cold-replay")
	ps, err := paper.Stream(1, SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cold.Stream(1, SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Events) != 2*len(ps.Events) {
		t.Fatalf("cold-replay has %d events, want 2x paper's %d", len(cs.Events), len(ps.Events))
	}
	if got, want := uniqueRatio(cs), uniqueRatio(ps)/2; got != want {
		t.Fatalf("cold-replay unique ratio %.4f, want exactly half of paper's (%.4f): replay minted new addresses", got, want)
	}
	if half := ps.End.Sub(ps.Origin); cs.End.Sub(cs.Origin) != 2*half {
		t.Fatalf("cold-replay window %v, want 2x paper's %v", cs.End.Sub(cs.Origin), half)
	}
}

// TestEUI64DenseShape asserts the EUI-64 sighting share dwarfs the
// paper baseline's ~10%.
func TestEUI64DenseShape(t *testing.T) {
	p, _ := Lookup("eui64-dense")
	st, err := p.Stream(1, SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	eui := 0
	for _, e := range st.Events {
		if e.Addr.IID().IsEUI64() {
			eui++
		}
	}
	share := float64(eui) / float64(len(st.Events))
	if share < 0.5 {
		t.Fatalf("EUI-64 sighting share %.3f; want >= 0.5", share)
	}
}

// TestCollisionShape asserts the adversarial cluster holds the
// properties the profile is named for: a dominant address mass sharing
// the low collisionBits of Hash64 (one open-addressing home slot on
// tables up to 2^collisionBits slots).
func TestCollisionShape(t *testing.T) {
	p, _ := Lookup("collision")
	st, err := p.Stream(1, SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	const mask = 1<<collisionBits - 1
	residues := make(map[uint64]int)
	uniq := make(map[[2]uint64]struct{})
	for _, e := range st.Events {
		key := [2]uint64{e.Addr.Hi(), e.Addr.Lo()}
		if _, seen := uniq[key]; seen {
			continue
		}
		uniq[key] = struct{}{}
		residues[e.Addr.Hash64()&mask]++
	}
	var peak int
	for _, n := range residues {
		if n > peak {
			peak = n
		}
	}
	if frac := float64(peak) / float64(len(uniq)); frac < 0.7 {
		t.Fatalf("largest hash-residue cluster holds %.2f of addresses; want >= 0.7", frac)
	}
	if len(uniq) < 256 {
		t.Fatalf("only %d unique addresses; cluster too small to stress probing", len(uniq))
	}
}

// TestOutageStormGroundTruth runs the storm profile through the real
// detector shape (per-AS bin counts over the scenario window) and
// checks every engineered window against its declared outcome: the
// multi-bin blackouts trip outage.Detect, the single-bin and
// partially-dark windows do not, and no AS outside a ShouldTrip window
// fires at all.
func TestOutageStormGroundTruth(t *testing.T) {
	p, _ := Lookup("outage-storm")
	st, err := p.Stream(1, SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	_, windows := OutageStormSpec(1, SizeSmall)
	s := binSeries(t, st)
	events := outage.Detect(s, outage.DefaultConfig())

	tripAS := make(map[asdb.ASN]bool)
	for _, w := range windows {
		hit := false
		for _, ev := range events {
			if ev.ASN == w.ASN && ev.From.Before(w.To) && w.From.Before(ev.To) {
				hit = true
			}
		}
		if hit != w.ShouldTrip {
			t.Errorf("AS%d window %v–%v: detected=%v, want %v",
				w.ASN, w.From, w.To, hit, w.ShouldTrip)
		}
		if w.ShouldTrip {
			tripAS[w.ASN] = true
		}
		if w.EndsOnBinEdge {
			if rem := w.To.Sub(st.Origin) % st.Bin; rem != 0 {
				t.Errorf("AS%d window end %v not on a bin edge (offset %v)", w.ASN, w.To, rem)
			}
		}
	}
	for _, ev := range events {
		if !tripAS[ev.ASN] {
			t.Errorf("spurious detection outside engineered windows: %v", ev)
		}
	}
}

// binSeries reproduces outage.BuildSeries over a generated stream — the
// same binning the ingest pipeline's window-mode outage stage performs.
func binSeries(t *testing.T, st *Stream) *outage.Series {
	t.Helper()
	if st.ASDB == nil {
		t.Fatal("stream has no ASDB")
	}
	window := st.End.Sub(st.Origin)
	total := int(window/st.Bin) + 1
	s := &outage.Series{
		Origin:   st.Origin,
		Bin:      st.Bin,
		Bins:     total,
		Complete: int(window / st.Bin),
		ByAS:     make(map[asdb.ASN][]int),
	}
	for _, e := range st.Events {
		as := st.ASDB.Lookup(e.Addr)
		if as == nil {
			continue
		}
		idx := int(time.Unix(e.Time, 0).UTC().Sub(st.Origin) / st.Bin)
		if idx < 0 || idx >= total {
			continue
		}
		c := s.ByAS[as.ASN]
		if c == nil {
			c = make([]int, total)
			s.ByAS[as.ASN] = c
		}
		c[idx]++
	}
	return s
}
