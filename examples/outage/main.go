// Outage example: the paper's introduction lists outage detection among
// the applications a large passive hitlist enables. This example injects
// a 36-hour outage into Telefonica Brasil and recovers the window purely
// from the passive feed — no probes sent — using a single replay: the
// per-AS outage series is an enrichment stage of the same sharded ingest
// pass that builds the address corpus, not a second pass over the world.
//
//	go run ./examples/outage
package main

import (
	"fmt"
	"log"
	"time"

	"hitlist6/internal/ingest"
	"hitlist6/internal/ntppool"
	"hitlist6/internal/outage"
	"hitlist6/internal/simnet"
)

func main() {
	cfg := simnet.DefaultConfig(7, 0.1)
	cfg.Days = 30
	for i := range cfg.ASes {
		if cfg.ASes[i].ASN == 27699 { // Telefonica Brasil
			cfg.ASes[i].Outages = []simnet.OutageWindow{{StartDay: 12, Hours: 36}}
		}
	}
	w, err := simnet.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	pool, err := ntppool.New(ntppool.StudyVantages())
	if err != nil {
		log.Fatal(err)
	}

	// One pass feeds everything: the pipeline shards the replay into the
	// collector corpus while the outage stage bins the same events per AS.
	pcfg := ingest.DefaultConfig(0)
	pcfg.Stages = []ingest.StageFactory{
		ingest.OutageSeries(w.ASDB, w.Origin, w.End, 6*time.Hour),
	}
	pipe, err := ingest.New(pcfg)
	if err != nil {
		log.Fatal(err)
	}
	ntppool.RunIngest(w, pool, pipe, nil)
	corpus := pipe.Close()
	stage, ok := pipe.Stage("outage").(*ingest.OutageSeriesStage)
	if !ok {
		log.Fatal("outage stage missing")
	}
	series := stage.Series()
	fmt.Printf("one pass: %d unique clients collected, %d ASes binned into %d six-hour bins (%d replays of the world)\n",
		corpus.NumAddrs(), len(series.ByAS), series.Bins, w.Replays())

	events := outage.Detect(series, outage.DefaultConfig())
	fmt.Printf("detected %d outage event(s):\n", len(events))
	for _, e := range events {
		name := ""
		if as := w.ASDB.Get(e.ASN); as != nil {
			name = as.Name
		}
		fmt.Printf("  %s  [%s]\n", e, name)
	}

	truthFrom := w.Origin.AddDate(0, 0, 12)
	truthTo := truthFrom.Add(36 * time.Hour)
	fmt.Printf("\nground truth: AS27699 dark %s – %s\n",
		truthFrom.Format("02-Jan-06 15:04"), truthTo.Format("02-Jan-06 15:04"))
	for _, e := range events {
		if e.ASN == 27699 && e.Overlaps(truthFrom, truthTo) {
			fmt.Println("=> recovered from the passive feed alone")
			return
		}
	}
	fmt.Println("=> missed (try a larger -scale)")
}
