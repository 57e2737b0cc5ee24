package outage_test

import (
	"fmt"
	"time"

	"hitlist6/internal/ingest"
	"hitlist6/internal/ntppool"
	"hitlist6/internal/outage"
	"hitlist6/internal/simnet"
)

// The paper's introduction lists outage detection among the
// applications a large passive hitlist enables. This example injects a
// 36-hour outage into Telefonica Brasil and recovers the window purely
// from the passive feed — no probes sent — using a single replay: the
// per-AS outage series is an enrichment stage of the same ingest pass
// that builds the address corpus, not a second pass over the world.
func Example() {
	cfg := simnet.DefaultConfig(7, 0.1)
	cfg.Days = 30
	for i := range cfg.ASes {
		if cfg.ASes[i].ASN == 27699 { // Telefonica Brasil
			cfg.ASes[i].Outages = []simnet.OutageWindow{{StartDay: 12, Hours: 36}}
		}
	}
	w, err := simnet.Build(cfg)
	if err != nil {
		panic(err)
	}
	pool, err := ntppool.New(ntppool.StudyVantages())
	if err != nil {
		panic(err)
	}

	// One pass feeds everything: the pipeline folds the replay into the
	// collector corpus while the outage stage bins the same events per AS.
	pcfg := ingest.DefaultConfig()
	pcfg.Stages = []ingest.StageFactory{
		ingest.OutageSeries(w.ASDB, w.Origin, w.End, 6*time.Hour),
	}
	pipe, err := ingest.New(pcfg)
	if err != nil {
		panic(err)
	}
	ntppool.RunIngest(w, pool, pipe, nil)
	corpus := pipe.Close()
	series := pipe.Stage("outage").(*ingest.OutageSeriesStage).Series()
	fmt.Printf("one pass: %d unique clients, %d ASes in %d six-hour bins, %d replay\n",
		corpus.NumAddrs(), len(series.ByAS), series.Bins, w.Replays())

	truthFrom := w.Origin.AddDate(0, 0, 12)
	truthTo := truthFrom.Add(36 * time.Hour)
	for _, e := range outage.Detect(series, outage.DefaultConfig()) {
		fmt.Printf("%s  [%s] truth=%v\n", e, w.ASDB.Get(e.ASN).Name, e.ASN == 27699 && e.Overlaps(truthFrom, truthTo))
	}
	// Output:
	// one pass: 8748 unique clients, 47 ASes in 121 six-hour bins, 1 replay
	// AS24940 dark 26-Jan-22 12:00 – 27-Jan-22 06:00 (3 bins, baseline 6 q/bin)  [Hetzner Online] truth=false
	// AS24940 dark 29-Jan-22 00:00 – 29-Jan-22 12:00 (2 bins, baseline 6 q/bin)  [Hetzner Online] truth=false
	// AS27699 dark 06-Feb-22 00:00 – 07-Feb-22 12:00 (6 bins, baseline 15 q/bin)  [Telefonica Brasil] truth=true
}
