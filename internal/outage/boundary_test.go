package outage_test

// Boundary coverage for Tail driven by the workload package's
// outage-storm scenario: the engineered windows there end exactly on
// bin edges (EndsOnBinEdge), include a single-bin blackout, and run
// through the series tail, which is precisely the geometry where
// off-by-one bin arithmetic hides. The in-package tests cover the happy
// paths on hand-built worlds; these pin the edges against the scenario
// harness's ground truth.

import (
	"sync"
	"testing"
	"time"

	"hitlist6/internal/asdb"
	"hitlist6/internal/outage"
	"hitlist6/internal/simnet"
	"hitlist6/internal/workload"
)

var storm struct {
	once    sync.Once
	world   *simnet.World
	windows []workload.StormWindow
	err     error
}

// stormWorld builds the outage-storm world once for the whole file;
// every test reads it immutably (BuildSeries replays queries, it does
// not mutate the world).
func stormWorld(t *testing.T) (*simnet.World, []workload.StormWindow) {
	t.Helper()
	storm.once.Do(func() {
		cfg, windows := workload.OutageStormSpec(1, workload.SizeSmall)
		storm.windows = windows
		storm.world, storm.err = simnet.Build(cfg)
	})
	if storm.err != nil {
		t.Fatal(storm.err)
	}
	return storm.world, storm.windows
}

func stormSeries(t *testing.T) (*outage.Series, []workload.StormWindow) {
	t.Helper()
	w, windows := stormWorld(t)
	s, err := outage.BuildSeries(w, workload.StormBin)
	if err != nil {
		t.Fatal(err)
	}
	return s, windows
}

// TestStormDetectBinEdgeAlignment: every engineered window that ends
// exactly on a bin edge and trips must be reported with From/To landing
// on those exact edges — including the tail window, whose dark run is
// terminated by the Complete cutoff rather than a bright bin.
func TestStormDetectBinEdgeAlignment(t *testing.T) {
	s, windows := stormSeries(t)
	events := outage.Detect(s, outage.DefaultConfig())

	for _, w := range windows {
		var hit *outage.Event
		for i := range events {
			if events[i].ASN == w.ASN && events[i].Overlaps(w.From, w.To) {
				hit = &events[i]
				break
			}
		}
		if w.ShouldTrip && hit == nil {
			t.Errorf("AS%d window %s–%s should trip and did not", w.ASN,
				w.From.Format("02 15:04"), w.To.Format("02 15:04"))
			continue
		}
		if !w.ShouldTrip {
			if hit != nil {
				t.Errorf("AS%d window %s–%s must not trip, got %v", w.ASN,
					w.From.Format("02 15:04"), w.To.Format("02 15:04"), *hit)
			}
			continue
		}
		if w.EndsOnBinEdge {
			if !hit.From.Equal(w.From) || !hit.To.Equal(w.To) {
				t.Errorf("AS%d event %s–%s does not align to the bin-edge window %s–%s",
					w.ASN, hit.From.Format("02 15:04"), hit.To.Format("02 15:04"),
					w.From.Format("02 15:04"), w.To.Format("02 15:04"))
			}
		}
	}
}

// TestStormTailWindow: Tail must slide the origin by whole bins, keep
// the engineered tail-window outage detectable inside the rolling
// window, and forget the earlier ones — with counts shared, not copied.
func TestStormTailWindow(t *testing.T) {
	s, windows := stormSeries(t)

	// n covering everything (or nonsense) returns the series itself.
	if s.Tail(0) != s || s.Tail(-3) != s || s.Tail(s.Complete) != s || s.Tail(s.Bins+5) != s {
		t.Fatal("degenerate Tail calls must return the input series")
	}

	// The last 2 days: contains only the Storm Tail window.
	n := int(48 * time.Hour / s.Bin)
	tail := s.Tail(n)
	drop := s.Complete - n
	if tail.Complete != n || tail.Bins != s.Bins-drop {
		t.Fatalf("Tail(%d): complete %d bins %d, want %d and %d", n, tail.Complete, tail.Bins, n, s.Bins-drop)
	}
	if wantOrigin := s.Origin.Add(time.Duration(drop) * s.Bin); !tail.Origin.Equal(wantOrigin) {
		t.Fatalf("Tail(%d) origin %v, want %v", n, tail.Origin, wantOrigin)
	}
	for asn, counts := range s.ByAS {
		got := tail.ByAS[asn]
		if len(got) != len(counts)-drop || (len(got) > 0 && &got[0] != &counts[drop]) {
			t.Fatalf("AS%d: tail window does not share the suffix of the recorded counts", asn)
		}
	}

	events := outage.Detect(tail, outage.DefaultConfig())
	for _, w := range windows {
		inWindow := w.From.After(tail.Origin) || w.From.Equal(tail.Origin)
		var hit bool
		for _, e := range events {
			if e.ASN == w.ASN && e.Overlaps(w.From, w.To) {
				hit = true
			}
		}
		switch {
		case inWindow && w.ShouldTrip && !hit:
			t.Errorf("AS%d: tail window lost the engineered tail outage", w.ASN)
		case !inWindow && hit:
			t.Errorf("AS%d: an outage before the rolling window leaked into the tail", w.ASN)
		}
	}

	// Tail(1): a single complete bin can never satisfy MinBins.
	if events := outage.Detect(s.Tail(1), outage.DefaultConfig()); len(events) != 0 {
		t.Fatalf("Tail(1) produced events: %v", events)
	}
}

// TestStormAllSilentAS: an AS that is present but never queries (all
// bins zero — the shape of an AS known to the AS DB whose clients all
// sit behind a firewall). It must be skipped by Detect's MinMedian
// guard rather than reported as one long outage, and survive Tail
// with the right shape. A short row (an AS first seen near
// the end, recorded with fewer bins) exercises Tail's len<=drop guard.
func TestStormAllSilentAS(t *testing.T) {
	base, _ := stormSeries(t)
	// Copy the series shell so the cached storm series stays pristine.
	s := &outage.Series{
		Origin: base.Origin, Bin: base.Bin, Bins: base.Bins, Complete: base.Complete,
		ByAS: make(map[asdb.ASN][]int, len(base.ByAS)+2),
	}
	for asn, counts := range base.ByAS {
		s.ByAS[asn] = counts
	}
	const silentASN = asdb.ASN(70399)
	const shortASN = asdb.ASN(70398)
	s.ByAS[silentASN] = make([]int, s.Bins)
	s.ByAS[shortASN] = []int{3, 1}

	for _, e := range outage.Detect(s, outage.DefaultConfig()) {
		if e.ASN == silentASN || e.ASN == shortASN {
			t.Fatalf("silent/short AS reported as an outage: %v", e)
		}
	}

	tail := s.Tail(4)
	if got := tail.ByAS[shortASN]; got != nil {
		t.Fatalf("short-row AS should have no counts inside the tail window, got %v", got)
	}
	if got := tail.ByAS[silentASN]; len(got) != tail.Bins {
		t.Fatalf("silent AS tail has %d bins, want %d", len(got), tail.Bins)
	}
}
