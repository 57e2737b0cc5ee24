package hitlist6

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hitlist6/internal/ntppool"
	"hitlist6/internal/scan"
	"hitlist6/internal/simnet"
	"hitlist6/internal/stats"
)

// TestStudySinglePass pins the single-pass contract: after the one
// CollectPassive replay, every analysis — tracking, geolocation, the
// active campaigns, the backscan, the whole report and summary — reads
// pass outputs, with zero further GenerateQueries passes.
func TestStudySinglePass(t *testing.T) {
	s, err := NewStudy(testConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CollectPassive(); err != nil {
		t.Fatal(err)
	}
	if got := s.World.Replays(); got != 1 {
		t.Fatalf("CollectPassive used %d replays, want 1", got)
	}

	if _, err := s.Tracking(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Geolocation(2); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildActive(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Report(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Summarize(); err != nil {
		t.Fatal(err)
	}
	if got := s.World.Replays(); got != 1 {
		t.Errorf("analyses replayed the world: %d replays after the analyses, Report and Summarize, want 1", got)
	}
}

// TestBackscanIsOneCampaign pins that a study runs one backscan
// campaign: its clients' vantages are selected once, during the pass,
// so two Report calls print the same bytes and Summarize's section42
// block describes the campaign the report printed.
func TestBackscanIsOneCampaign(t *testing.T) {
	s := runStudy(t, 1)
	first, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("two Report calls on one study differ")
	}
	sm, err := s.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	line := func(prefix string) string {
		for _, l := range strings.Split(first, "\n") {
			if strings.HasPrefix(l, prefix) {
				return l
			}
		}
		t.Fatalf("report has no line %q", prefix)
		return ""
	}
	bs := sm.Backscan
	for _, c := range []struct{ got, want string }{
		{line("  clients probed:"), "  clients probed:   " + stats.Comma(int64(bs.ClientsProbed))},
		{line("  client responses:"), "(" + stats.Pct(bs.ClientResponseRate, 1) + ")"},
		{line("  random probes:"), "(" + stats.Pct(bs.RandomResponseRate, 2) + ")"},
		{line("  aliased /64s discovered:"), fmt.Sprintf("  aliased /64s discovered: %d", bs.AliasedPrefixes)},
	} {
		if !strings.HasSuffix(c.got, c.want) {
			t.Errorf("report line %q does not end in the summary's %q", c.got, c.want)
		}
	}
}

// TestBackscanWindowMatchesReplay holds the pass-fed campaign to one
// recorded from a replay: a second study of the same seed replays its
// world after its own CollectPassive, steers a fresh pool through every
// query as the pass did, and records the window with BackscanClients.
// The two campaigns must be identical, for a short window and for one
// wider than the study (clamped to its origin).
func TestBackscanWindowMatchesReplay(t *testing.T) {
	for _, seed := range []int64{5, 9} {
		for _, days := range []int{2, testConfig(seed).Days + 5} {
			cfg := testConfig(seed)
			cfg.BackscanDays = days
			a, err := NewStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Backscan(); err == nil {
				t.Error("Backscan before CollectPassive should fail")
			}
			if err := a.CollectPassive(); err != nil {
				t.Fatal(err)
			}
			got, err := a.Backscan()
			if err != nil {
				t.Fatal(err)
			}

			b, err := NewStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.CollectPassive(); err != nil {
				t.Fatal(err)
			}
			pool, err := ntppool.New(ntppool.StudyVantages())
			if err != nil {
				t.Fatal(err)
			}
			var queries []simnet.Query
			b.World.GenerateQueries(func(q simnet.Query) {
				pool.Select(b.World.Geo.Country(q.Addr))
				queries = append(queries, q)
			})
			bcfg := b.backscanWindow()
			clients := scan.BackscanClients(queries, poolAdapter{pool, b.World.Geo}, bcfg)
			want := scan.Backscan(b.World, clients, bcfg)
			if want.ClientsProbed == 0 {
				t.Fatalf("seed %d, BackscanDays %d: the replayed campaign probed nothing", seed, days)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d, BackscanDays %d: the pass-fed campaign (%d clients) differs from the replayed one (%d)",
					seed, days, got.ClientsProbed, want.ClientsProbed)
			}
		}
	}

	// A window widened after collection reaches days the pass did not
	// keep; a narrowed one probes the recorded clients inside it.
	s := runStudy(t, 5)
	s.Config.BackscanDays = testConfig(5).BackscanDays + 1
	if _, err := s.Backscan(); err == nil {
		t.Error("Backscan over a window wider than the pass recorded should fail")
	}
	s.Config.BackscanDays = 1
	if _, err := s.Backscan(); err != nil {
		t.Errorf("Backscan over a narrower window: %v", err)
	}
}
