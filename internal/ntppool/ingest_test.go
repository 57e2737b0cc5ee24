package ntppool

import (
	"testing"
	"time"

	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/simnet"
)

// TestRunIngestMatchesRun pins the rewiring contract: the sharded
// replay driver must produce the same corpus, the same day slice and
// the same producer-side statistics as the legacy single-goroutine Run,
// because vantage selection stays on one goroutine in replay order.
func TestRunIngestMatchesRun(t *testing.T) {
	cfg := simnet.DefaultConfig(29, 0.04)
	cfg.Days = 12
	dayStart := time.Date(2022, 1, 25, 0, 0, 0, 0, time.UTC).AddDate(0, 0, 6)

	build := func() (*simnet.World, *Pool) {
		w, err := simnet.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(StudyVantages())
		if err != nil {
			t.Fatal(err)
		}
		return w, p
	}

	w, p := build()
	legacy := collector.New()
	legacyDay := collector.New()
	legacyStats := Run(w, p, legacy, legacyDay, dayStart)

	w2, p2 := build()
	pcfg := ingest.DefaultConfig(4)
	pcfg.Stages = []ingest.StageFactory{
		ingest.DaySlice(dayStart.Unix(), dayStart.Add(24*time.Hour).Unix()),
	}
	pipe, err := ingest.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	var tapped uint64
	stats := RunIngest(w2, p2, pipe, func(simnet.Query) { tapped++ })
	merged := pipe.Close()
	day := pipe.Stage("dayslice").(*ingest.DaySliceStage).Col

	if merged.Checksum() != legacy.Checksum() {
		t.Error("sharded corpus differs from legacy Run")
	}
	if day.Checksum() != legacyDay.Checksum() {
		t.Error("day slice differs from legacy Run")
	}
	if stats.Queries != legacyStats.Queries {
		t.Errorf("queries %d vs %d", stats.Queries, legacyStats.Queries)
	}
	if tapped != stats.Queries {
		t.Errorf("the tap saw %d queries, the producer %d", tapped, stats.Queries)
	}
	for i := range stats.PerVantage {
		if stats.PerVantage[i] != legacyStats.PerVantage[i] {
			t.Errorf("vantage %d: %d vs %d", i, stats.PerVantage[i], legacyStats.PerVantage[i])
		}
	}
	for zone, n := range legacyStats.PerZone {
		if stats.PerZone[zone] != n {
			t.Errorf("zone %s: %d vs %d", zone, stats.PerZone[zone], n)
		}
	}
	if merged.NumAddrs() != legacy.NumAddrs() {
		t.Errorf("unique clients %d vs %d", merged.NumAddrs(), legacy.NumAddrs())
	}
}

// TestMaterializeEventsMatchesRun checks the materialized stream is the
// replay: folding it serially reproduces the legacy corpus.
func TestMaterializeEventsMatchesRun(t *testing.T) {
	cfg := simnet.DefaultConfig(31, 0.03)
	cfg.Days = 8
	w, err := simnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := New(StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	legacy := collector.New()
	Run(w, p1, legacy, nil, time.Time{})

	w2, err := simnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	events := MaterializeEvents(w2, p2)
	folded := collector.New()
	for _, ev := range events {
		folded.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
	}
	if folded.Checksum() != legacy.Checksum() {
		t.Error("materialized stream does not reproduce the legacy corpus")
	}
}
