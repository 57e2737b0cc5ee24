package ntppool

import (
	"reflect"
	"testing"
	"time"

	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/outage"
	"hitlist6/internal/simnet"
	"hitlist6/internal/tracking"
)

// singlePassWorld builds a world with an injected 48-hour outage so the
// equivalence tests cover a series with real detections in it.
func singlePassWorld(t *testing.T) *simnet.World {
	t.Helper()
	cfg := simnet.DefaultConfig(41, 0.06)
	cfg.Days = 16
	for i := range cfg.ASes {
		if cfg.ASes[i].ASN == 4134 {
			cfg.ASes[i].Outages = []simnet.OutageWindow{{StartDay: 5, Hours: 48}}
		}
	}
	w, err := simnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func assertSeriesEqual(t *testing.T, label string, want, got *outage.Series) {
	t.Helper()
	if !got.Origin.Equal(want.Origin) || got.Bin != want.Bin ||
		got.Bins != want.Bins || got.Complete != want.Complete {
		t.Fatalf("%s: series shape (%v,%v,%d,%d) vs (%v,%v,%d,%d)", label,
			got.Origin, got.Bin, got.Bins, got.Complete,
			want.Origin, want.Bin, want.Bins, want.Complete)
	}
	if len(got.ByAS) != len(want.ByAS) {
		t.Fatalf("%s: %d ASes vs %d", label, len(got.ByAS), len(want.ByAS))
	}
	for asn, counts := range want.ByAS {
		if !reflect.DeepEqual(got.ByAS[asn], counts) {
			t.Fatalf("%s: AS%d bins %v vs %v", label, asn, got.ByAS[asn], counts)
		}
	}
}

// TestOutageStageEquivalence pins the single-pass contract: the per-AS
// series accumulated by the ingest pipeline's outage stage is identical
// to replaying the world through outage.BuildSeries, and so are the
// detected events.
func TestOutageStageEquivalence(t *testing.T) {
	w := singlePassWorld(t)
	const bin = 6 * time.Hour

	ref, err := outage.BuildSeries(w, bin)
	if err != nil {
		t.Fatal(err)
	}
	refEvents := outage.Detect(ref, outage.DefaultConfig())
	if len(refEvents) == 0 {
		t.Fatal("reference replay detected nothing; the equivalence would be vacuous")
	}

	p, err := New(StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ingest.DefaultConfig()
	cfg.Stages = []ingest.StageFactory{
		ingest.OutageSeries(w.ASDB, w.Origin, w.End, bin),
	}
	pipe, err := ingest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	RunIngest(w, p, pipe, nil)
	pipe.Close()
	stage, ok := pipe.Stage("outage").(*ingest.OutageSeriesStage)
	if !ok {
		t.Fatal("outage stage missing")
	}
	got := stage.Series()
	assertSeriesEqual(t, "pipeline", ref, got)
	if events := outage.Detect(got, outage.DefaultConfig()); !reflect.DeepEqual(events, refEvents) {
		t.Errorf("events %v vs %v", events, refEvents)
	}
}

// TestOutageStageMatchesBuildSeriesAtEachWidth: the window stage is the
// only producer of a coarse series (nothing rebins a fine one), so it
// must reproduce the reference replay at every width it may be given —
// divisors of a day, a width that is not (7h: the last bin straddles
// the window's end), and a whole day — not only at the 6h the
// equivalence test above uses.
func TestOutageStageMatchesBuildSeriesAtEachWidth(t *testing.T) {
	w := singlePassWorld(t)
	for _, bin := range []time.Duration{time.Hour, 3 * time.Hour, 7 * time.Hour, 24 * time.Hour} {
		t.Run(bin.String(), func(t *testing.T) {
			ref, err := outage.BuildSeries(w, bin)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.ByAS) == 0 {
				t.Fatal("reference replay binned no AS; the equivalence would be vacuous")
			}
			p, err := New(StudyVantages())
			if err != nil {
				t.Fatal(err)
			}
			cfg := ingest.DefaultConfig()
			cfg.Stages = []ingest.StageFactory{ingest.OutageSeries(w.ASDB, w.Origin, w.End, bin)}
			pipe, err := ingest.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			RunIngest(w, p, pipe, nil)
			pipe.Close()
			got := pipe.Stage("outage").(*ingest.OutageSeriesStage).Series()
			assertSeriesEqual(t, "bin="+bin.String(), ref, got)
		})
	}
}

// TestTrackingStoreEquivalence pins the other half of the single pass:
// the §5 tracking analysis over the pipeline's merged Store — read live
// after a snapshot, and again from the detached corpus after Close — is
// identical to the analysis over a serial replay's collector.
func TestTrackingStoreEquivalence(t *testing.T) {
	w := singlePassWorld(t)

	p, err := New(StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	serial := collector.New()
	Run(w, p, serial, nil, time.Time{})
	want := tracking.AnalyzeWorkers(serial.IIDTable(), w.ASDB, w.Geo, w.OUI, 1)
	if len(want.MACs) == 0 {
		t.Fatal("serial replay produced no EUI-64 MACs; the equivalence would be vacuous")
	}

	p2, err := New(StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := ingest.New(ingest.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	RunIngest(w, p2, pipe, nil)

	// Live read: quiesce the pipeline, then analyze the store
	// mid-life.
	pipe.Quiesce()
	var live *tracking.Analysis
	pipe.Store().View(func(c *collector.Collector) {
		live = tracking.AnalyzeWorkers(c.IIDTable(), w.ASDB, w.Geo, w.OUI, 1)
	})
	if !reflect.DeepEqual(want, live) {
		t.Error("live store analysis differs from serial replay")
	}

	// Closed read: the detached corpus must agree too.
	closed := tracking.AnalyzeWorkers(pipe.Close().IIDTable(), w.ASDB, w.Geo, w.OUI, 1)
	if !reflect.DeepEqual(want, closed) {
		t.Error("closed-corpus analysis differs from serial replay")
	}
}
