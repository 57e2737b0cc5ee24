package main

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/telemetry"
	"hitlist6/internal/workload"
)

func sumCategories(r statsReply) uint64 {
	var sum uint64
	for _, n := range r.Categories {
		sum += n
	}
	return sum
}

// checkDescribesCorpus holds one /stats reply to its own corpus: the
// categories partition unique_addrs, and the sketch estimates it within
// three standard errors of a 2^14-register HyperLogLog.
func checkDescribesCorpus(t *testing.T, when string, r statsReply, wantAddrs int) {
	t.Helper()
	if r.UniqueAddrs != wantAddrs {
		t.Fatalf("%s: unique_addrs %d, want %d", when, r.UniqueAddrs, wantAddrs)
	}
	if sum := sumCategories(r); sum != uint64(r.UniqueAddrs) {
		t.Errorf("%s: categories %v sum to %d, unique_addrs is %d", when, r.Categories, sum, r.UniqueAddrs)
	}
	bound := 3 * 1.04 / math.Sqrt(1<<14) * float64(r.UniqueAddrs)
	if math.Abs(r.HLLEstimate-float64(r.UniqueAddrs)) > bound {
		t.Errorf("%s: hll_estimate %.1f is more than %.1f from unique_addrs %d", when, r.HLLEstimate, bound, r.UniqueAddrs)
	}
}

// distinctEvents returns n sightings of n distinct addresses, numbered
// from first, spread over low-byte and high-entropy IIDs.
func distinctEvents(first, n int) []ingest.Event {
	evs := make([]ingest.Event, n)
	for i := range evs {
		k := uint64(first + i)
		lo := k%200 + 1
		if k%3 == 0 {
			lo = k*0x9e3779b97f4a7c15 | 1<<63
		}
		evs[i] = ingest.Event{Addr: addr.FromParts(0x20010db8_00000000|k/200<<16, lo), Time: 1643673600 + int64(k)}
	}
	return evs
}

// TestStatsDescribesRestoredCorpus: what /stats says of the corpus is
// read from the corpus, so a daemon restarted on its -snapshot.dir
// describes the restored addresses on its first reply — before any new
// event, unique_iids included — and keeps describing the whole corpus
// as more arrive. Held
// per event, in stages no checkpoint carried, the same keys read
// hll_estimate 0 and no categories after a restart.
func TestStatsDescribesRestoredCorpus(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, dir)
	d.pipe.Ingest(distinctEvents(0, 5000))
	if _, err := d.checkpointNow(); err != nil {
		t.Fatal(err)
	}
	checkDescribesCorpus(t, "before the restart", d.buildStats(), 5000)
	d.pipe.Close()

	restored := restoreOrEmpty(snapshotPath(dir), t.Logf)
	wantIIDs := restored.IIDTable().NumIIDs()
	d = newSeededDaemon(t, dir, restored)
	defer d.pipe.Close()
	first := d.buildStats()
	checkDescribesCorpus(t, "first reply after the restart", first, 5000)
	if first.UniqueIIDs != wantIIDs {
		t.Errorf("first reply after the restart: unique_iids %d, the restored corpus's IID table holds %d", first.UniqueIIDs, wantIIDs)
	}
	if len(first.Categories) < 2 {
		t.Errorf("restored corpus shows categories %v, fed low-byte and high-entropy IIDs", first.Categories)
	}

	d.pipe.Ingest(distinctEvents(5000, 3000))
	d.pipe.Quiesce()
	checkDescribesCorpus(t, "after more events", d.buildStats(), 8000)

	// Re-sightings add observations and no address: the reply is built
	// without folding anything.
	d.pipe.Ingest(distinctEvents(0, 8000))
	d.pipe.Quiesce()
	sketch := *d.tally.sketch
	again := d.buildStats()
	checkDescribesCorpus(t, "after re-sightings", again, 8000)
	if again.Observations != 16000 {
		t.Errorf("observations %d after re-sighting every address, want 16000", again.Observations)
	}
	if d.tally.folded != 8000 || !reflect.DeepEqual(*d.tally.sketch, sketch) {
		t.Errorf("re-sightings moved the tally: folded %d, want 8000", d.tally.folded)
	}
}

// TestTallyResumesTheFold: over three workload profiles, with batches
// landing while it folds and one checkpoint → restore split
// mid-stream, a tally brought up to the store after every merge
// request holds exactly what one fold over [0, NumAddrs()) of the
// same view yields — same watermark, same counts, same registers, and
// the IID count an IIDTable of the view holds — and never re-reads
// what it has folded. A store holding less than was folded starts it
// over.
func TestTallyResumesTheFold(t *testing.T) {
	for _, name := range []string{"paper", "collision", "churn"} {
		p, _ := workload.Lookup(name)
		st, err := p.Stream(1, workload.SizeSmall)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ingest.DefaultConfig()
		cfg.BatchSize = 32
		pipe, err := ingest.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tally := new(corpusTally)
		advanced := 0
		foldAndCompare := func(when string) {
			t.Helper()
			pipe.Store().View(func(c *collector.Collector) {
				before := tally.folded
				tally.fold(c)
				if tally.folded > before {
					advanced++
				}
				scratch := new(corpusTally)
				scratch.fold(c)
				if tally.folded != c.NumAddrs() || tally.cats != scratch.cats || !reflect.DeepEqual(tally.sketch, scratch.sketch) {
					t.Fatalf("%s %s: resumed tally (folded %d, %v) is not the fold from scratch (folded %d, %v)",
						name, when, tally.folded, tally.cats, scratch.folded, scratch.cats)
				}
				if n := c.IIDTable().NumIIDs(); tally.iids.Len() != n || scratch.iids.Len() != n {
					t.Fatalf("%s %s: resumed tally counts %d IIDs, from scratch %d, the IID table %d",
						name, when, tally.iids.Len(), scratch.iids.Len(), n)
				}
			})
		}
		half := len(st.Events) / 2
		for at := 0; at < len(st.Events); at += 96 {
			if at <= half && half < at+96 {
				// The restore split: a restarted daemon has a new tally
				// and folds the restored slab on its first reply.
				path := snapshotPath(t.TempDir())
				if _, err := pipe.CheckpointFile(path); err != nil {
					t.Fatal(err)
				}
				foldAndCompare("at the checkpoint")
				pipe.Close()
				cfg.Seed = restoreOrEmpty(path, t.Logf)
				if pipe, err = ingest.New(cfg); err != nil {
					t.Fatal(err)
				}
				tally = new(corpusTally)
				foldAndCompare("on the restored corpus")
			}
			pipe.Ingest(st.Events[at:min(at+96, len(st.Events))]) // batches land while the next folds run
			foldAndCompare("mid-stream")
		}
		pipe.Quiesce()
		foldAndCompare("at the end")
		if advanced < 4 {
			t.Errorf("%s: the tally advanced %d times; the fold was never resumed", name, advanced)
		}

		small := collector.New()
		small.ObserveUnix(addr.MustParse("2001:db8::1"), 1643673600, 0)
		tally.fold(small)
		scratch := new(corpusTally)
		scratch.fold(small)
		if tally.folded != 1 || tally.cats != scratch.cats || !reflect.DeepEqual(tally.sketch, scratch.sketch) || tally.iids.Len() != 1 {
			t.Errorf("%s: a smaller store left the tally at folded %d, %v", name, tally.folded, tally.cats)
		}
		pipe.Close()
	}
}

// TestDaemonStages: the daemon runs a stage only for what needs the
// event's time. With outage detection off (-outage.bin 0) the pipeline
// holds none and /metrics has no ingest_stage_seconds series; with it
// on, the outage series is the one stage.
func TestDaemonStages(t *testing.T) {
	for _, tc := range []struct {
		routes *asdb.DB
		want   []string
	}{
		{nil, nil},
		{new(asdb.DB), []string{"outage"}},
	} {
		cfg := ingest.DefaultConfig()
		cfg.Stages = daemonStages(tc.routes, time.Hour)
		cfg.Registry = telemetry.NewRegistry()
		pipe, err := ingest.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		pipe.StageView(func(stages []ingest.Stage) {
			for _, s := range stages {
				got = append(got, s.Name())
			}
		})
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("outage detection %v: stages %v, want %v", tc.routes != nil, got, tc.want)
		}
		var exposition strings.Builder
		if err := cfg.Registry.WritePrometheus(&exposition); err != nil {
			t.Fatal(err)
		}
		if has := strings.Contains(exposition.String(), "ingest_stage_seconds"); has != (tc.want != nil) {
			t.Errorf("outage detection %v: ingest_stage_seconds on /metrics = %v", tc.routes != nil, has)
		}
		pipe.Close()
	}
}

// TestStatsFreshWithoutSnapshot: with no quiesce, /stats already counts
// every processed event — the ingest worker writes the store itself, so
// the corpus needs no snapshot to catch up with them.
func TestStatsFreshWithoutSnapshot(t *testing.T) {
	d := newTestDaemon(t, "")
	defer d.pipe.Close()
	srv := httptest.NewServer(d.newMux())
	defer srv.Close()

	const n = 1000
	b := d.pipe.NewBatcher()
	for i := range n {
		b.Add(ingest.Event{Addr: addr.FromParts(0x20010db8_00000000, uint64(i)+1), Time: 1643673600})
	}
	b.Flush()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, body := get(t, srv.URL, "/stats")
		var reply statsReply
		if err := json.Unmarshal([]byte(body), &reply); err != nil {
			t.Fatalf("/stats not JSON: %v\n%s", err, body)
		}
		if reply.Metrics.Processed == n {
			// Metrics are read before the corpus, and a batch is counted
			// processed only once it is in the store.
			if reply.Observations != n || reply.UniqueAddrs != n {
				t.Fatalf("processed %d, but /stats counts %d observations of %d addresses", n, reply.Observations, reply.UniqueAddrs)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("processed stuck at %d of %d", reply.Metrics.Processed, n)
		}
		time.Sleep(time.Millisecond)
	}
}
